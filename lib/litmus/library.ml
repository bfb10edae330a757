open Wmm_model
open Test

(* Locations. *)
let x = 0
let y = 1
let z = 2

(* Registers. *)
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4

let verdicts ~sc ~tso ~arm ~power =
  [ (Axiomatic.Sc, sc); (Axiomatic.Tso, tso); (Axiomatic.Arm, arm); (Axiomatic.Power, power) ]

(* ------------------------------------------------------------------ *)
(* Coherence.                                                          *)
(* ------------------------------------------------------------------ *)

let coww =
  make ~name:"CoWW" ~description:"two writes to one location stay in program order"
    ~threads:[ [| str ~value:1 ~loc:x; str ~value:2 ~loc:x |] ]
    ~condition:[] ~mem_condition:[ (x, 1) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let corr =
  make ~name:"CoRR" ~description:"reads of one location respect coherence order"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| ldr ~dst:r1 ~loc:x; ldr ~dst:r2 ~loc:x |];
      ]
    ~condition:[ ((1, r1), 1); ((1, r2), 0) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let cowr =
  make ~name:"CoWR" ~description:"a read after a write to the same location sees it"
    ~threads:[ [| str ~value:1 ~loc:x; ldr ~dst:r1 ~loc:x |] ]
    ~condition:[ ((0, r1), 0) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let coherence = [ coww; corr; cowr ]

(* ------------------------------------------------------------------ *)
(* Unfenced classics.                                                  *)
(* ------------------------------------------------------------------ *)

let sb =
  make ~name:"SB" ~description:"store buffering: both reads see the initial state"
    ~threads:
      [
        [| str ~value:1 ~loc:x; ldr ~dst:r1 ~loc:y |];
        [| str ~value:1 ~loc:y; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0) ]
    ~expected:(verdicts ~sc:false ~tso:true ~arm:true ~power:true)
    ()

let mp_threads ~writer_fence ~reader =
  [
    Array.of_list ((str ~value:1 ~loc:x :: writer_fence) @ [ str ~value:1 ~loc:y ]);
    Array.of_list reader;
  ]

let mp_plain_reader = [ ldr ~dst:r1 ~loc:y; ldr ~dst:r4 ~loc:x ]

(* Reader with an artificial address dependency: r3 = r1 xor r1 = 0 =
   the address of x. *)
let mp_addr_reader =
  [ ldr ~dst:r1 ~loc:y; xor_self ~dst:r3 ~src:r1; ldr_reg ~dst:r4 ~addr:r3 ]

let mp_cond = [ ((1, r1), 1); ((1, r4), 0) ]

let mp =
  make ~name:"MP" ~description:"message passing without fences"
    ~threads:(mp_threads ~writer_fence:[] ~reader:mp_plain_reader)
    ~condition:mp_cond
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let lb =
  make ~name:"LB" ~description:"load buffering: both loads see the other's store"
    ~threads:
      [
        [| ldr ~dst:r1 ~loc:x; str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; str ~value:1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 1); ((1, r1), 1) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let lb_data =
  make ~name:"LB+datas" ~description:"load buffering with data dependencies (thin air)"
    ~threads:
      [
        [| ldr ~dst:r1 ~loc:x; str_reg ~src:r1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; str_reg ~src:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 1); ((1, r1), 1) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let s_test =
  make ~name:"S" ~description:"write overwritten by po-later store seen remotely"
    ~threads:
      [
        [| str ~value:2 ~loc:x; str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; str ~value:1 ~loc:x |];
      ]
    ~condition:[ ((1, r1), 1) ]
    ~mem_condition:[ (x, 2) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let r_test =
  make ~name:"R" ~description:"write race with a read of the initial state"
    ~threads:
      [
        [| str ~value:1 ~loc:x; str ~value:1 ~loc:y |];
        [| str ~value:2 ~loc:y; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((1, r1), 0) ]
    ~mem_condition:[ (y, 2) ]
    ~expected:(verdicts ~sc:false ~tso:true ~arm:true ~power:true)
    ()

let w2plus2 =
  make ~name:"2+2W" ~description:"both threads' first stores lose the coherence races"
    ~threads:
      [
        [| str ~value:1 ~loc:x; str ~value:2 ~loc:y |];
        [| str ~value:1 ~loc:y; str ~value:2 ~loc:x |];
      ]
    ~condition:[] ~mem_condition:[ (x, 1); (y, 1) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let wrc =
  make ~name:"WRC" ~description:"write-to-read causality without dependencies"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| ldr ~dst:r1 ~loc:x; str ~value:1 ~loc:y |];
        [| ldr ~dst:r2 ~loc:y; ldr ~dst:r3 ~loc:x |];
      ]
    ~condition:[ ((1, r1), 1); ((2, r2), 1); ((2, r3), 0) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let iriw =
  make ~name:"IRIW" ~description:"independent reads of independent writes"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:x; ldr ~dst:r2 ~loc:y |];
        [| ldr ~dst:r3 ~loc:y; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:[ ((2, r1), 1); ((2, r2), 0); ((3, r3), 1); ((3, r4), 0) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:true ~power:true)
    ()

let common = [ sb; mp; lb; lb_data; s_test; r_test; w2plus2; wrc; iriw ]

(* ------------------------------------------------------------------ *)
(* Atomics (load-exclusive / store-exclusive).                         *)
(* ------------------------------------------------------------------ *)

let cas_thread =
  [| ldxr ~dst:r1 ~loc:x; addi ~dst:r2 ~src:r1 1; stxr ~status:r3 ~src:r2 ~loc:x |]

let cas_both =
  make ~name:"CAS+both"
    ~description:"two exclusives cannot both succeed from the same value (atomicity)"
    ~threads:[ cas_thread; cas_thread ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0); ((0, r3), 0); ((1, r3), 0) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let cas_one =
  make ~name:"CAS+one"
    ~description:"one exclusive succeeds while the racing one fails"
    ~threads:[ cas_thread; cas_thread ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0); ((0, r3), 0); ((1, r3), 1) ]
    ~mem_condition:[ (x, 1) ]
    ~expected:(verdicts ~sc:true ~tso:true ~arm:true ~power:true)
    ()

let cas_chain =
  make ~name:"CAS+chain"
    ~description:"a successful exclusive observed by the second thread's exclusive"
    ~threads:[ cas_thread; cas_thread ]
    ~condition:[ ((0, r3), 0); ((1, r1), 1); ((1, r3), 0) ]
    ~mem_condition:[ (x, 2) ]
    ~expected:(verdicts ~sc:true ~tso:true ~arm:true ~power:true)
    ()

let atomics = [ cas_both; cas_one; cas_chain ]

(* ------------------------------------------------------------------ *)
(* ARMv8 variants.                                                     *)
(* ------------------------------------------------------------------ *)

let arm_only v = [ (Axiomatic.Arm, v) ]

let sb_dmb =
  make ~name:"SB+dmbs" ~description:"store buffering fenced with dmb ish"
    ~threads:
      [
        [| str ~value:1 ~loc:x; dmb; ldr ~dst:r1 ~loc:y |];
        [| str ~value:1 ~loc:y; dmb; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0) ]
    ~expected:(arm_only false) ()

let mp_dmb_addr =
  make ~name:"MP+dmb+addr" ~description:"message passing, dmb writer, addr-dep reader"
    ~threads:(mp_threads ~writer_fence:[ dmb ] ~reader:mp_addr_reader)
    ~condition:mp_cond ~expected:(arm_only false) ()

let mp_dmbst_addr =
  make ~name:"MP+dmb.st+addr" ~description:"dmb ishst orders the writer's stores"
    ~threads:(mp_threads ~writer_fence:[ dmb_st ] ~reader:mp_addr_reader)
    ~condition:mp_cond ~expected:(arm_only false) ()

let mp_dmb_only =
  make ~name:"MP+dmb" ~description:"one-sided fencing leaves the reader free"
    ~threads:(mp_threads ~writer_fence:[ dmb ] ~reader:mp_plain_reader)
    ~condition:mp_cond ~expected:(arm_only true) ()

let mp_dmb_ctrl =
  make ~name:"MP+dmb+ctrl"
    ~description:"a control dependency does not order read-to-read"
    ~threads:
      (mp_threads ~writer_fence:[ dmb ]
         ~reader:([ ldr ~dst:r1 ~loc:y ] @ ctrl_then r1 @ [ ldr ~dst:r4 ~loc:x ]))
    ~condition:mp_cond ~expected:(arm_only true) ()

let mp_dmb_ctrl_isb =
  make ~name:"MP+dmb+ctrl+isb"
    ~description:"ctrl+isb restores read-to-read ordering"
    ~threads:
      (mp_threads ~writer_fence:[ dmb ]
         ~reader:([ ldr ~dst:r1 ~loc:y ] @ ctrl_then r1 @ [ isb_i; ldr ~dst:r4 ~loc:x ]))
    ~condition:mp_cond ~expected:(arm_only false) ()

let mp_rel_acq =
  make ~name:"MP+rel+acq" ~description:"store-release / load-acquire message passing"
    ~threads:
      [
        [| str ~value:1 ~loc:x; str_rel ~value:1 ~loc:y |];
        [| ldr_acq ~dst:r1 ~loc:y; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:mp_cond ~expected:(arm_only false) ()

let sb_rel_acq =
  make ~name:"SB+rel+acq"
    ~description:"RCsc: store-release to load-acquire is ordered on ARMv8"
    ~threads:
      [
        [| str_rel ~value:1 ~loc:x; ldr_acq ~dst:r1 ~loc:y |];
        [| str_rel ~value:1 ~loc:y; ldr_acq ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0) ]
    ~expected:(arm_only false) ()

let iriw_dmb =
  make ~name:"IRIW+dmbs" ~description:"IRIW fenced with dmb ish"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:x; dmb; ldr ~dst:r2 ~loc:y |];
        [| ldr ~dst:r3 ~loc:y; dmb; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:[ ((2, r1), 1); ((2, r2), 0); ((3, r3), 1); ((3, r4), 0) ]
    ~expected:(arm_only false) ()

let iriw_addrs =
  make ~name:"IRIW+addrs"
    ~description:
      "IRIW with address dependencies: forbidden on other-multi-copy-atomic ARMv8, \
       allowed on POWER"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| str ~value:1 ~loc:y |];
        [|
          ldr ~dst:r1 ~loc:x;
          xor_self ~dst:r3 ~src:r1;
          addi ~dst:r3 ~src:r3 y;
          ldr_reg ~dst:r2 ~addr:r3;
        |];
        [|
          ldr ~dst:r1 ~loc:y;
          xor_self ~dst:r3 ~src:r1;
          ldr_reg ~dst:r2 ~addr:r3;
        |];
      ]
    ~condition:[ ((2, r1), 1); ((2, r2), 0); ((3, r1), 1); ((3, r2), 0) ]
    ~expected:[ (Axiomatic.Arm, false); (Axiomatic.Power, true) ]
    ()

let lb_ctrl =
  make ~name:"LB+ctrls" ~description:"control dependencies to stores forbid load buffering"
    ~threads:
      [
        Array.of_list ([ ldr ~dst:r1 ~loc:x ] @ ctrl_then r1 @ [ str ~value:1 ~loc:y ]);
        Array.of_list ([ ldr ~dst:r1 ~loc:y ] @ ctrl_then r1 @ [ str ~value:1 ~loc:x ]);
      ]
    ~condition:[ ((0, r1), 1); ((1, r1), 1) ]
    ~expected:(verdicts ~sc:false ~tso:false ~arm:false ~power:false)
    ()

let s_dmbst =
  make ~name:"S+dmb.st+addr" ~description:"dmb ishst keeps the overwritten store visible"
    ~threads:
      [
        [| str ~value:2 ~loc:x; dmb_st; str ~value:1 ~loc:y |];
        [|
          ldr ~dst:r1 ~loc:y;
          xor_self ~dst:r3 ~src:r1;
          Wmm_isa.Instr.Op
            { op = Wmm_isa.Instr.Add; dst = r3; a = Wmm_isa.Instr.Reg r3;
              b = Wmm_isa.Instr.Imm 0 };
          Wmm_isa.Instr.Store
            { src = Wmm_isa.Instr.Imm 1; addr = Wmm_isa.Instr.Reg r3;
              order = Wmm_isa.Instr.Plain };
        |];
      ]
    ~condition:[ ((1, r1), 1) ]
    ~mem_condition:[ (x, 2) ]
    ~expected:(arm_only false) ()

let wrc_addrs_arm =
  make ~name:"WRC+addrs"
    ~description:"write-to-read causality with dependencies (forbidden on ARMv8)"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [|
          ldr ~dst:r1 ~loc:x;
          xor_self ~dst:r2 ~src:r1;
          Wmm_isa.Instr.Op
            { op = Wmm_isa.Instr.Add; dst = r2; a = Wmm_isa.Instr.Reg r2;
              b = Wmm_isa.Instr.Imm y };
          Wmm_isa.Instr.Store
            { src = Wmm_isa.Instr.Imm 1; addr = Wmm_isa.Instr.Reg r2;
              order = Wmm_isa.Instr.Plain };
        |];
        [|
          ldr ~dst:r2 ~loc:y;
          xor_self ~dst:r3 ~src:r2;
          ldr_reg ~dst:r4 ~addr:r3;
        |];
      ]
    ~condition:[ ((1, r1), 1); ((2, r2), 1); ((2, r4), 0) ]
    ~expected:[ (Axiomatic.Arm, false) ]
    ()

let mp_dmbld_one_sided =
  make ~name:"MP+dmb.ld"
    ~description:"a load barrier on the reader alone leaves the writer free"
    ~threads:
      [
        [| str ~value:1 ~loc:x; str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; dmb_ld; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:mp_cond ~expected:(arm_only true) ()

let mp_dmb_both =
  make ~name:"MP+dmb+dmb.ld" ~description:"fences on both sides forbid message passing"
    ~threads:
      [
        [| str ~value:1 ~loc:x; dmb; str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; dmb_ld; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:mp_cond ~expected:(arm_only false) ()

let r_dmb =
  make ~name:"R+dmbs" ~description:"full fences forbid the R shape"
    ~threads:
      [
        [| str ~value:1 ~loc:x; dmb; str ~value:1 ~loc:y |];
        [| str ~value:2 ~loc:y; dmb; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((1, r1), 0) ]
    ~mem_condition:[ (y, 2) ]
    ~expected:(arm_only false) ()

let w2plus2_dmbst =
  make ~name:"2+2W+dmb.sts" ~description:"store fences forbid 2+2W"
    ~threads:
      [
        [| str ~value:1 ~loc:x; dmb_st; str ~value:2 ~loc:y |];
        [| str ~value:1 ~loc:y; dmb_st; str ~value:2 ~loc:x |];
      ]
    ~condition:[] ~mem_condition:[ (x, 1); (y, 1) ]
    ~expected:(arm_only false) ()

let arm =
  [
    sb_dmb;
    lb_ctrl;
    s_dmbst;
    wrc_addrs_arm;
    mp_dmbld_one_sided;
    mp_dmb_both;
    r_dmb;
    w2plus2_dmbst;
    mp_dmb_addr;
    mp_dmbst_addr;
    mp_dmb_only;
    mp_dmb_ctrl;
    mp_dmb_ctrl_isb;
    mp_rel_acq;
    sb_rel_acq;
    iriw_dmb;
    iriw_addrs;
  ]

(* ------------------------------------------------------------------ *)
(* POWER variants.                                                     *)
(* ------------------------------------------------------------------ *)

let power_only v = [ (Axiomatic.Power, v) ]

let sb_sync =
  make ~name:"SB+syncs" ~description:"store buffering fenced with hwsync"
    ~threads:
      [
        [| str ~value:1 ~loc:x; sync_i; ldr ~dst:r1 ~loc:y |];
        [| str ~value:1 ~loc:y; sync_i; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0) ]
    ~expected:(power_only false) ()

let sb_lwsync =
  make ~name:"SB+lwsyncs" ~description:"lwsync does not order write-to-read"
    ~threads:
      [
        [| str ~value:1 ~loc:x; lwsync_i; ldr ~dst:r1 ~loc:y |];
        [| str ~value:1 ~loc:y; lwsync_i; ldr ~dst:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 0); ((1, r1), 0) ]
    ~expected:(power_only true) ()

let mp_lwsync_addr =
  make ~name:"MP+lwsync+addr" ~description:"lwsync writer, addr-dep reader"
    ~threads:(mp_threads ~writer_fence:[ lwsync_i ] ~reader:mp_addr_reader)
    ~condition:mp_cond ~expected:(power_only false) ()

let mp_sync_addr =
  make ~name:"MP+sync+addr" ~description:"hwsync writer, addr-dep reader"
    ~threads:(mp_threads ~writer_fence:[ sync_i ] ~reader:mp_addr_reader)
    ~condition:mp_cond ~expected:(power_only false) ()

let mp_lwsync_only =
  make ~name:"MP+lwsync" ~description:"one-sided lwsync leaves the reader free"
    ~threads:(mp_threads ~writer_fence:[ lwsync_i ] ~reader:mp_plain_reader)
    ~condition:mp_cond ~expected:(power_only true) ()

let mp_lwsync_ctrl_isync =
  make ~name:"MP+lwsync+ctrl+isync" ~description:"ctrl+isync restores the reader"
    ~threads:
      (mp_threads ~writer_fence:[ lwsync_i ]
         ~reader:([ ldr ~dst:r1 ~loc:y ] @ ctrl_then r1 @ [ isync_i; ldr ~dst:r4 ~loc:x ]))
    ~condition:mp_cond ~expected:(power_only false) ()

let iriw_syncs =
  make ~name:"IRIW+syncs" ~description:"hwsync restores IRIW even on POWER"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:x; sync_i; ldr ~dst:r2 ~loc:y |];
        [| ldr ~dst:r3 ~loc:y; sync_i; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:[ ((2, r1), 1); ((2, r2), 0); ((3, r3), 1); ((3, r4), 0) ]
    ~expected:(power_only false) ()

let isa2 =
  make ~name:"ISA2+lwsync+data+addr"
    ~description:"lwsync cumulativity carries ordering through a third thread"
    ~threads:
      [
        [| str ~value:1 ~loc:x; lwsync_i; str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; str_reg ~src:r1 ~loc:z |];
        [|
          ldr ~dst:r2 ~loc:z;
          xor_self ~dst:r3 ~src:r2;
          ldr_reg ~dst:r4 ~addr:r3;
        |];
      ]
    ~condition:[ ((1, r1), 1); ((2, r2), 1); ((2, r4), 0) ]
    ~expected:(power_only false) ()

let w2plus2_lwsync =
  make ~name:"2+2W+lwsyncs" ~description:"lwsync orders write-to-write, forbidding 2+2W"
    ~threads:
      [
        [| str ~value:1 ~loc:x; lwsync_i; str ~value:2 ~loc:y |];
        [| str ~value:1 ~loc:y; lwsync_i; str ~value:2 ~loc:x |];
      ]
    ~condition:[] ~mem_condition:[ (x, 1); (y, 1) ]
    ~expected:(power_only false) ()

let iriw_lwsyncs =
  make ~name:"IRIW+lwsyncs"
    ~description:"lwsync is not cumulative enough for IRIW (stays allowed on POWER)"
    ~threads:
      [
        [| str ~value:1 ~loc:x |];
        [| str ~value:1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:x; lwsync_i; ldr ~dst:r2 ~loc:y |];
        [| ldr ~dst:r3 ~loc:y; lwsync_i; ldr ~dst:r4 ~loc:x |];
      ]
    ~condition:[ ((2, r1), 1); ((2, r2), 0); ((3, r3), 1); ((3, r4), 0) ]
    ~expected:(power_only true) ()

let mp_eieio_addr =
  make ~name:"MP+eieio+addr" ~description:"eieio orders the writer's stores"
    ~threads:
      (mp_threads ~writer_fence:[ Wmm_isa.Instr.Barrier Wmm_isa.Instr.Eieio ]
         ~reader:mp_addr_reader)
    ~condition:mp_cond ~expected:(power_only false) ()

let lb_data_power =
  make ~name:"LB+datas+power" ~description:"data dependencies forbid LB on POWER too"
    ~threads:
      [
        [| ldr ~dst:r1 ~loc:x; str_reg ~src:r1 ~loc:y |];
        [| ldr ~dst:r1 ~loc:y; str_reg ~src:r1 ~loc:x |];
      ]
    ~condition:[ ((0, r1), 1); ((1, r1), 1) ]
    ~expected:(power_only false) ()

let power =
  [
    sb_sync;
    w2plus2_lwsync;
    iriw_lwsyncs;
    mp_eieio_addr;
    lb_data_power;
    sb_lwsync;
    mp_lwsync_addr;
    mp_sync_addr;
    mp_lwsync_only;
    mp_lwsync_ctrl_isync;
    iriw_syncs;
    isa2;
  ]

let all = coherence @ common @ atomics @ arm @ power

let for_model model =
  List.filter (fun t -> Test.expected_under t model <> None) all

(* Callers look tests up by name in inner loops (CLI expansion, the
   analysis pipeline, generated-battery naming), so build the index
   once instead of scanning the list per query. *)
let name_index =
  lazy
    (let tbl = Hashtbl.create (List.length all) in
     List.iter
       (fun (t : Test.t) ->
         if not (Hashtbl.mem tbl t.Test.name) then Hashtbl.add tbl t.Test.name t)
       all;
     tbl)

let by_name name = Hashtbl.find_opt (Lazy.force name_index) name
