open Wmm_isa
(** Candidate executions: events plus the base relations (po, rf, co,
    dependencies) of the herding cats framework.

    Every relation is a {!Bitrel.t} over the event ids, sized to the
    event count.  The candidates of one run combination share their
    events and their rf/co-free relations (po, addr, data, ctrl, rmw),
    and may share rf across coherence choices, so no relation of an
    execution may be mutated. *)

type t = {
  events : Event.t array;  (** Indexed by event id. *)
  po : Bitrel.t;  (** Program order, transitively closed, per thread. *)
  rf : Bitrel.t;  (** Reads-from: write -> read, same loc and value. *)
  co : Bitrel.t;  (** Coherence: per-location total order on writes. *)
  addr : Bitrel.t;  (** Address dependencies: read -> access. *)
  data : Bitrel.t;  (** Data dependencies: read -> write. *)
  ctrl : Bitrel.t;  (** Control dependencies: read -> later event. *)
  rmw : Bitrel.t;
      (** Read-modify-write pairs: the exclusive read -> the paired
          successful exclusive write. *)
}

val event : t -> int -> Event.t

val reads : t -> int list
val writes : t -> int list

val fr_of : rf:Bitrel.t -> co:Bitrel.t -> Bitrel.t
(** From-reads: [rf^-1 ; co], reads before the writes that overwrite
    what they read. *)

val external_pairs : t -> Bitrel.t
(** Every pair of events on different threads (init writes count as
    external to every thread); a relation's external part, such as
    rfe, is its intersection with this. *)

val final_memory : t -> (Instr.loc * Instr.value) list
(** Value of each location after the execution: the co-maximal write
    per location. *)

val well_formed : t -> (unit, string) result
(** Sanity checks: rf sources are writes and targets reads of the
    same location and value, every read has exactly one rf source, co
    is a per-location strict total order on writes. *)
