open Wmm_isa
open Wmm_litmus

(* Compilation of C11 accesses and fences to ARM and POWER
   instruction sequences.  The mappings are the documented ones
   (Batty et al. / the cppmem compilation tables), restricted to what
   the shipped hardware models can express:

   ARM (native, RCsc half-barrier instructions):
     ld rlx      -> ldr ; cbnz +0        (pseudo control dependency)
     ld acq/sc   -> ldar
     st rlx      -> str
     st rel/sc   -> stlr
     fence acq   -> dmb ishld
     fence rel/acq_rel/sc -> dmb ish

   ARM (fenced, pre-ARMv8 style):
     ld rlx      -> ldr ; cbnz +0
     ld acq      -> ldr ; cbnz +0 ; isb  (ctrl-isb)
     ld sc       -> ldr ; dmb ish
     st rel      -> dmb ish ; str
     st sc       -> dmb ish ; str ; dmb ish
     fence as native

   POWER (leading-sync):
     ld rlx      -> ld ; cbnz +0
     ld acq      -> ld ; lwsync
     ld sc       -> sync ; ld ; lwsync
     st rlx      -> st
     st rel      -> lwsync ; st
     st sc       -> sync ; st
     fence acq/rel/acq_rel -> lwsync, fence sc -> sync

   The pseudo control dependency after relaxed loads is load-bearing:
   RC11 forbids load-buffering cycles outright (acyclic po U rf),
   while the dependency-free hardware models allow them.  A
   [cbnz dst, +0] is architecturally a no-op but creates a control
   dependency from the load to every later store, which both hardware
   ppos preserve — restoring exactly the po U rf edges RC11 counts
   on.  Orders whose mapping already begins the load with an acquire
   flavour (ldar, ld;lwsync, ctrl-isb) don't need it.

   Exclusive pairs compile to the exclusive instructions with the
   same placement of half barriers; a compiled RMW can still fail
   spuriously, matching the language-level single-attempt builders. *)

type scheme = Arm_native | Arm_fenced | Power_sync

let all_schemes = [ Arm_native; Arm_fenced; Power_sync ]

let scheme_name = function
  | Arm_native -> "arm-native"
  | Arm_fenced -> "arm-fenced"
  | Power_sync -> "power-sync"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "arm-native" | "arm" -> Some Arm_native
  | "arm-fenced" -> Some Arm_fenced
  | "power-sync" | "power" -> Some Power_sync
  | _ -> None

let scheme_arch = function
  | Arm_native | Arm_fenced -> Arch.Armv8
  | Power_sync -> Arch.Power7

let fake_ctrl dst = Instr.Cbnz { src = dst; offset = 0 }

let compile_fence scheme b =
  let barrier x = [ Instr.Barrier x ] in
  match (scheme, b) with
  (* Hardware barriers pass through untouched. *)
  | _, (Instr.Dmb_ish | Instr.Dmb_ishld | Instr.Dmb_ishst | Instr.Isb) -> barrier b
  | _, (Instr.Sync | Instr.Lwsync | Instr.Isync | Instr.Eieio) -> barrier b
  | (Arm_native | Arm_fenced), Instr.Fence_acq -> barrier Instr.Dmb_ishld
  | (Arm_native | Arm_fenced), (Instr.Fence_rel | Instr.Fence_acq_rel | Instr.Fence_sc)
    ->
      barrier Instr.Dmb_ish
  | Power_sync, (Instr.Fence_acq | Instr.Fence_rel | Instr.Fence_acq_rel) ->
      barrier Instr.Lwsync
  | Power_sync, Instr.Fence_sc -> barrier Instr.Sync

let compile_instr scheme (i : Instr.t) =
  let b x = Instr.Barrier x in
  match i with
  | Instr.Load { dst; addr; order } -> (
      let plain = Instr.Load { dst; addr; order = Instr.Plain } in
      let acq = Instr.Load { dst; addr; order = Instr.Acquire } in
      match (scheme, order) with
      | _, Instr.Plain | _, Instr.Release -> [ plain; fake_ctrl dst ]
      | (Arm_native | Arm_fenced), Instr.Acquire
      | (Arm_native | Arm_fenced), Instr.Acq_rel ->
          if scheme = Arm_native then [ acq ]
          else [ plain; fake_ctrl dst; b Instr.Isb ]
      | Arm_native, Instr.Sc -> [ acq ]
      | Arm_fenced, Instr.Sc -> [ plain; b Instr.Dmb_ish ]
      | Power_sync, (Instr.Acquire | Instr.Acq_rel) -> [ plain; b Instr.Lwsync ]
      | Power_sync, Instr.Sc -> [ b Instr.Sync; plain; b Instr.Lwsync ])
  | Instr.Store { src; addr; order } -> (
      let plain = Instr.Store { src; addr; order = Instr.Plain } in
      let rel = Instr.Store { src; addr; order = Instr.Release } in
      match (scheme, order) with
      | _, Instr.Plain | _, Instr.Acquire -> [ plain ]
      | Arm_native, (Instr.Release | Instr.Acq_rel | Instr.Sc) -> [ rel ]
      | Arm_fenced, (Instr.Release | Instr.Acq_rel) -> [ b Instr.Dmb_ish; plain ]
      | Arm_fenced, Instr.Sc -> [ b Instr.Dmb_ish; plain; b Instr.Dmb_ish ]
      | Power_sync, (Instr.Release | Instr.Acq_rel) -> [ b Instr.Lwsync; plain ]
      | Power_sync, Instr.Sc -> [ b Instr.Sync; plain ])
  | Instr.Load_exclusive { dst; addr; order } -> (
      let plain = Instr.Load_exclusive { dst; addr; order = Instr.Plain } in
      let acq = Instr.Load_exclusive { dst; addr; order = Instr.Acquire } in
      match (scheme, order) with
      | _, Instr.Plain | _, Instr.Release -> [ plain; fake_ctrl dst ]
      | Arm_native, (Instr.Acquire | Instr.Acq_rel | Instr.Sc) -> [ acq ]
      | Arm_fenced, (Instr.Acquire | Instr.Acq_rel) ->
          [ plain; fake_ctrl dst; b Instr.Isb ]
      | Arm_fenced, Instr.Sc -> [ plain; b Instr.Dmb_ish ]
      | Power_sync, (Instr.Acquire | Instr.Acq_rel) -> [ plain; b Instr.Lwsync ]
      | Power_sync, Instr.Sc -> [ b Instr.Sync; plain; b Instr.Lwsync ])
  | Instr.Store_exclusive { status; src; addr; order } -> (
      let plain = Instr.Store_exclusive { status; src; addr; order = Instr.Plain } in
      let rel = Instr.Store_exclusive { status; src; addr; order = Instr.Release } in
      match (scheme, order) with
      | _, Instr.Plain | _, Instr.Acquire -> [ plain ]
      | Arm_native, (Instr.Release | Instr.Acq_rel | Instr.Sc) -> [ rel ]
      | Arm_fenced, (Instr.Release | Instr.Acq_rel) -> [ b Instr.Dmb_ish; plain ]
      | Arm_fenced, Instr.Sc -> [ b Instr.Dmb_ish; plain; b Instr.Dmb_ish ]
      | Power_sync, (Instr.Release | Instr.Acq_rel) -> [ b Instr.Lwsync; plain ]
      | Power_sync, Instr.Sc -> [ b Instr.Sync; plain ])
  | Instr.Barrier barrier -> compile_fence scheme barrier
  | (Instr.Mov _ | Instr.Op _ | Instr.Cbnz _ | Instr.Cbz _ | Instr.Nop) as i -> [ i ]

(* Compiling one instruction to several shifts every later index, so
   relative branch offsets must be recomputed against the compiled
   layout.  Branches compile to themselves and sit at the start of
   their (singleton) sequence; a target is always an original
   instruction boundary, including one-past-the-end. *)
let compile_thread scheme (thread : Program.thread) =
  let n = Array.length thread in
  let seqs = Array.map (compile_instr scheme) thread in
  let starts = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    starts.(i + 1) <- starts.(i) + List.length seqs.(i)
  done;
  let retarget i instr =
    match instr with
    | Instr.Cbnz { src; offset } when offset <> 0 ->
        Instr.Cbnz { src; offset = starts.(i + 1 + offset) - (starts.(i) + 1) }
    | Instr.Cbz { src; offset } when offset <> 0 ->
        Instr.Cbz { src; offset = starts.(i + 1 + offset) - (starts.(i) + 1) }
    | instr -> instr
  in
  Array.of_list
    (List.concat (List.mapi (fun i seq -> List.map (retarget i) seq) (Array.to_list seqs)))

let compile_program scheme (p : Program.t) =
  Program.make
    ~location_names:p.Program.location_names ~init:p.Program.init
    ~name:(p.Program.name ^ "@" ^ scheme_name scheme)
    (Array.to_list (Array.map (compile_thread scheme) p.Program.threads))

(* Register footprints are preserved (inserted instructions write no
   registers), so conditions carry over verbatim. *)
let compile_test scheme (t : Test.t) =
  let p = compile_program scheme t.Test.program in
  Test.make
    ~name:(t.Test.name ^ "@" ^ scheme_name scheme)
    ~description:t.Test.description ~locations:p.Program.location_names
    ~init:p.Program.init
    ~threads:(Array.to_list p.Program.threads)
    ~condition:t.Test.condition ~mem_condition:t.Test.mem_condition ~expected:[] ()
