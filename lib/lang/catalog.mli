open Wmm_litmus

(** The language tier's named tests, compilation schemes and locks,
    its default batteries, and the RC11 explore row: the one selection
    that the one-shot CLI and the served daemon share.  Callers word
    their own errors. *)

val find : string -> Test.t option
(** A lock-suite test by lock name, else a litmus-library test (an
    optional [+c11] suffix is dropped) lifted to C11 accesses. *)

val locks : unit -> Test.t list
(** The lock suite at its default orders: the default explore
    battery. *)

val conform_default : unit -> Test.t list
(** The lifted litmus library, then the lock suite: the default
    containment battery. *)

val select :
  limit:int -> default:(unit -> Test.t list) -> string list -> (Test.t list, string) result
(** The named tests ([default ()] when none are named), capped at the
    first [limit] (0 = all); [Error name] for the first name {!find}
    does not know. *)

val select_schemes :
  default:Compile.scheme list -> string list -> (Compile.scheme list, string) result
(** The named compilation schemes ([default] when none are named);
    [Error name] for the first name {!Compile.scheme_of_string} does
    not know. *)

val select_locks : string list -> (Locks.t list, string) result
(** The named locks ([Locks.all] when none are named); [Error name]
    for the first name {!Locks.by_name} does not know. *)

val explore : Test.t -> int * bool
(** The number of RC11-allowed outcomes, and whether the test's
    condition is among them. *)
