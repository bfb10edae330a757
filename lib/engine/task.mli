open Wmm_util

(** The engine's job model.

    A task reifies one experiment sample as a pure computation
    identified by a content [key].  The key must fully determine the
    result: it doubles as the cache identity, and it seeds the task's
    private RNG stream, so neither scheduling order nor the number of
    worker domains can perturb what a task computes. *)

type 'a t = {
  key : string;
      (** Full content descriptor.  Two tasks with equal keys must
          compute equal values (of the same type) - the cache relies
          on it. *)
  label : string;  (** Short human-readable label for telemetry. *)
  run : Rng.t -> 'a;
      (** The computation.  The RNG is a private stream derived from
          [key] ({!rng_for}); tasks that carry their own seeding may
          ignore it. *)
}

val make : key:string -> ?label:string -> (Rng.t -> 'a) -> 'a t
(** [label] defaults to [key] truncated to 60 characters. *)

val pure : key:string -> ?label:string -> (unit -> 'a) -> 'a t
(** A task that ignores the engine-provided RNG. *)

val rng_for : string -> Rng.t
(** The private stream for a key: a split of a generator seeded by a
    digest of the key.  Depends only on the key, never on submission
    or execution order. *)
