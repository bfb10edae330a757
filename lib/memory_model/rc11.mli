open Wmm_isa

(** The RC11 language-level axiomatic model (Lahav et al.), hoisted
    into the same static/per-candidate split as {!Axiomatic}: coherence
    (irreflexive hb;eco?), SC (acyclic psc), and no-thin-air (acyclic
    po U rf).  Atomicity is shared with the hardware models and is not
    re-stated here.  Entry point for callers is {!Axiomatic} with the
    [Rc11] model, which assembles its checks from this interface. *)

type mode = Rlx | Acq | Rel | Acq_rel_m | Sc_m

val read_mode : Instr.order -> mode
val write_mode : Instr.order -> mode

val fence_mode : Instr.barrier -> mode
(** C11 fences map directly; hardware barriers get their natural
    language strength (dmb/sync -> sc, lwsync -> acq_rel, dmb.ld ->
    acq, dmb.st/eieio -> rel, isb/isync -> rlx) so lifted hardware
    tests stay meaningful. *)

val event_mode : Event.t -> mode

type ctx

val prepare : Execution.t -> ctx
(** Precompute the rf/co-independent context (release/acquire
    boundaries of synchronises-with, sc masks, program order). *)

val checks : ctx -> rf:Bitrel.t -> co:Bitrel.t -> (string * (unit -> bool)) list
(** Named axiom thunks sharing one lazily-forced derived environment:
    ["coherence"], ["no-thin-air"], ["sc"]. *)
