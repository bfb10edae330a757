open Wmm_isa
(** The discrete-event multicore performance simulator.

    Each core executes its micro-op stream in order; stores retire
    into a store buffer that drains serially through the coherent
    memory system ({!Memsys}); full fences stall until the buffer is
    empty, which makes their cost depend on buffer occupancy and
    cache state - the mechanism behind the paper's micro/macro
    divergence.  Cores are advanced in global time order so bus
    contention is causally consistent. *)

type config = {
  timing : Timing.t;
  cores : int;
  seed : int;  (** Drives branch-mispredict draws; fixed seed = fixed result. *)
}

val config : ?seed:int -> ?cores:int -> Arch.t -> config
(** Default core count is the architecture's ({!Arch.core_count}). *)

type stats = {
  wall_cycles : int;  (** Completion time of the slowest core. *)
  per_core_cycles : int array;
  bus_transactions : int;
  bus_wait_cycles : int;
  fence_stall_cycles : int;  (** Cycles full fences spent waiting on drains. *)
  release_stall_cycles : int;
  forwarded_loads : int;
  l1_hits : int;
  l1_misses : int;
  uops_executed : int;
}

val run : config -> Uop.packed array array -> stats
(** [run config streams] executes [streams.(i)] on core
    [i mod config.cores].  Raises [Invalid_argument] when more
    streams than cores are supplied. *)

val wall_ns : config -> stats -> float

val sequence_cost_ns : ?repetitions:int -> Timing.t -> Uop.t list -> float
(** Microbenchmark a short instruction sequence: execute it
    back-to-back in an otherwise empty single-core context and return
    the steady-state cost in nanoseconds per occurrence.  This is the
    in-vitro measurement the paper compares against in-vivo derived
    costs. *)
