open Wmm_isa
open Wmm_litmus

(* Language-level (C11) program builders.  C11 access modes reuse
   {!Instr.order}: [Plain] is relaxed (there are no non-atomics in
   this tier), [Acquire]/[Release] are their C11 namesakes, and
   [Acq_rel]/[Sc] exist only at this tier until {!Compile} lowers
   them.  RMWs are expressed as exclusive pairs, exactly what the
   enumerator's rmw-edge machinery and the atomicity axiom expect:
   a language-level CAS may fail spuriously, which only adds
   outcomes and therefore never endangers compilation containment. *)

let rlx = Instr.Plain
let acq = Instr.Acquire
let rel = Instr.Release
let acq_rel = Instr.Acq_rel
let sc = Instr.Sc

let mode_name = function
  | Instr.Plain -> "rlx"
  | Instr.Acquire -> "acq"
  | Instr.Release -> "rel"
  | Instr.Acq_rel -> "acq_rel"
  | Instr.Sc -> "sc"

let load ~mode ~dst ~loc = Instr.Load { dst; addr = Instr.Imm loc; order = mode }

let store ~mode ~value ~loc =
  Instr.Store { src = Instr.Imm value; addr = Instr.Imm loc; order = mode }

let store_reg ~mode ~src ~loc =
  Instr.Store { src = Instr.Reg src; addr = Instr.Imm loc; order = mode }

let fence_acq = Instr.Barrier Instr.Fence_acq
let fence_rel = Instr.Barrier Instr.Fence_rel
let fence_acq_rel = Instr.Barrier Instr.Fence_acq_rel
let fence_sc = Instr.Barrier Instr.Fence_sc

(* Single-attempt compare-and-swap: [status] is 0 iff the swap
   happened.  On a value mismatch the store-exclusive is skipped, so
   the failure path performs only the (exclusive) read — C11's
   failure memory order is the read's order, as required.  [tmp]
   holds old - expected; [old] keeps the loaded value. *)
let cas ~status ~old ~tmp ~expected ~desired ~loc ~mode_r ~mode_w =
  [
    Instr.Mov { dst = status; src = Instr.Imm 1 };
    Instr.Load_exclusive { dst = old; addr = Instr.Imm loc; order = mode_r };
    Instr.Op { op = Instr.Sub; dst = tmp; a = Instr.Reg old; b = Instr.Imm expected };
    Instr.Cbnz { src = tmp; offset = 1 };
    Instr.Store_exclusive
      { status; src = Instr.Imm desired; addr = Instr.Imm loc; order = mode_w };
  ]

(* Single-attempt atomic exchange; [status] 0 iff it took effect
   (store-exclusives may fail spuriously). *)
let exchange ~status ~old ~desired ~loc ~mode_r ~mode_w =
  [
    Instr.Mov { dst = status; src = Instr.Imm 1 };
    Instr.Load_exclusive { dst = old; addr = Instr.Imm loc; order = mode_r };
    Instr.Store_exclusive
      { status; src = Instr.Imm desired; addr = Instr.Imm loc; order = mode_w };
  ]

(* ------------------------------------------------------------------ *)
(* Lifting the hardware litmus library to the language tier.           *)
(* ------------------------------------------------------------------ *)

(* One instruction maps to one instruction (so branch offsets and
   register conditions survive unchanged): access orders keep their
   C11 namesakes, hardware barriers become the C11 fence of the same
   strength, and the pipeline barriers become acquire fences (their
   litmus use is the ctrl+isb/isync idiom, the hardware spelling of
   an acquiring read). *)
let lift_barrier = function
  | Instr.Dmb_ish | Instr.Sync -> Instr.Fence_sc
  | Instr.Lwsync -> Instr.Fence_acq_rel
  | Instr.Dmb_ishld -> Instr.Fence_acq
  | Instr.Dmb_ishst | Instr.Eieio -> Instr.Fence_rel
  | Instr.Isb | Instr.Isync -> Instr.Fence_acq
  | (Instr.Fence_acq | Instr.Fence_rel | Instr.Fence_acq_rel | Instr.Fence_sc) as b -> b

let lift_instr = function
  | Instr.Barrier b -> Instr.Barrier (lift_barrier b)
  | i -> i

let lift_test (t : Test.t) =
  let p = t.Test.program in
  let threads =
    Array.to_list (Array.map (fun th -> Array.map lift_instr th) p.Wmm_isa.Program.threads)
  in
  Test.make
    ~name:(t.Test.name ^ "+c11")
    ~description:(t.Test.description ^ " (lifted to C11 accesses)")
    ~locations:p.Wmm_isa.Program.location_names ~init:p.Wmm_isa.Program.init ~threads
    ~condition:t.Test.condition ~mem_condition:t.Test.mem_condition ~expected:[] ()

let lifted_library () = List.map lift_test Library.all
