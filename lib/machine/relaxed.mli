open Wmm_isa

(** An operational weak-memory machine for running litmus tests.

    Each hardware thread has a small out-of-order window and a store
    buffer.  Weak behaviours arise from three mechanisms: stores
    retire into the buffer and become globally visible later
    (write->read reordering, as in SB); the buffer drains out of
    order except across barriers and same-location entries
    (write->write reordering, as in MP); and loads may execute out of
    order with respect to older loads and independent stores
    (read->read and read->write reordering, as in MP and LB).
    Branches are never speculated, so control dependencies are always
    respected - the machine exhibits a *subset* of the axiomatically
    allowed behaviours, which the litmus checker accounts for.

    Barriers have their architectural semantics: full barriers
    ([dmb ish], [sync]) wait for the window and drain the buffer;
    [dmb ishld] orders earlier loads; [dmb ishst] and [lwsync] insert
    drain-order markers; [isb]/[isync] wait for everything;
    load-acquire and store-release behave as in ARMv8 (RCsc). *)

type config = {
  window_size : int;  (** Out-of-order window size per thread. *)
  fifo_buffer : bool;  (** Drain in FIFO order (a TSO-like machine). *)
  reorder_loads : bool;  (** Allow load-load / load-store reordering. *)
  synchronous_stores : bool;
      (** Bypass the store buffer entirely (sequential consistency). *)
}

val relaxed_config : config
(** ARM/POWER-like: non-FIFO buffer, load reordering, window 8. *)

val tso_config : config
(** FIFO buffer, in-order loads: only write->read reordering. *)

val sc_config : config
(** Window of 1 and synchronous drain: sequentially consistent. *)

type outcome = {
  registers : ((int * Instr.reg) * Instr.value) list;  (** Sorted. *)
  memory : (Instr.loc * Instr.value) list;  (** Sorted. *)
}

val compare_outcome : outcome -> outcome -> int

val run_traced :
  config -> seed:int -> Program.t -> outcome * Wmm_cert.Trace.action list array
(** One execution with uniformly random scheduling, and the canonical
    per-thread memory-event trace of it: reads with the value they
    observed, globally visible writes (successful store-exclusives
    flagged as rmw; failed ones emit nothing), and fences, in program
    order regardless of the order the window executed them in.  The
    traces replay cleanly through {!Wmm_cert.Replay.replay_thread},
    which is how the certificate tests cross-validate the machine's
    thread-local semantics against the checker's. *)

val enumerate : ?max_states:int -> config -> Program.t -> outcome list
(** All reachable final states, by a depth-first search over memoised
    states that uses sleep sets to skip interleavings of independent
    actions (actions of different threads that touch different
    locations, or only read the same one).  Raises [Failure] if the
    number of distinct states visited exceeds [max_states] (default
    500_000). *)

val exists_outcome :
  config ->
  Program.t ->
  registers:((int * Instr.reg) * Instr.value) list ->
  memory:(Instr.loc * Instr.value) list ->
  bool
(** Whether some reachable final state satisfies the condition: every
    listed register was written and holds its value, and every listed
    location holds its value (a location the program never names
    counts as 0).  It is the search of {!enumerate}, stopped at the
    first such state.  The search skips any state in which a finished
    thread (empty window, [pc] past its code) has a listed register
    unwritten or holding another value; a finished thread's registers
    never change, so no satisfying final state lies below such a
    state.  When no final state satisfies the condition the search
    still runs to the end.  Raises [Failure] past 500_000 distinct
    states, as {!enumerate} does by default. *)
