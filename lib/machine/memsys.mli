(** Shared memory system: per-core direct-mapped L1 caches kept
    coherent by an invalidation protocol over a single shared bus.

    The model is deliberately simple but stateful: the cost of a load
    or of draining a store depends on where the line currently lives
    (own cache exclusive / shared / another core's cache / memory)
    and on bus contention, which is what makes barrier costs
    context-dependent in macro workloads. *)

type t

val create : Timing.t -> cores:int -> t

val reset : t -> unit

val load : t -> core:int -> loc:int -> now:int -> int
(** Perform a load: updates cache state and the core's load and miss
    counts, and returns when the value is available. *)

val store_drain : t -> core:int -> loc:int -> now:int -> int
(** Drain one store-buffer entry to the coherent memory system:
    obtains the line exclusively (invalidating sharers) and returns
    the completion time. *)

val bus_transactions : t -> int
(** Total coherence transactions so far (for reports). *)

val bus_wait_cycles : t -> int
(** Total cycles spent waiting for the bus (contention measure). *)

val loads : t -> core:int -> int
(** Loads [core] has performed so far. *)

val misses : t -> core:int -> int
(** Those of [core]'s loads that missed its L1. *)
