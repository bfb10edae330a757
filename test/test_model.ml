open Wmm_isa
open Wmm_model
open Wmm_litmus

(* Axiomatic model verdicts on the litmus library ------------------- *)

let allowed model name =
  let test = Option.get (Library.by_name name) in
  Check.axiomatic_allowed model test

let test_sb_verdicts () =
  Alcotest.(check bool) "SC forbids" false (allowed Axiomatic.Sc "SB");
  Alcotest.(check bool) "TSO allows" true (allowed Axiomatic.Tso "SB");
  Alcotest.(check bool) "ARM allows" true (allowed Axiomatic.Arm "SB");
  Alcotest.(check bool) "POWER allows" true (allowed Axiomatic.Power "SB")

let test_mp_verdicts () =
  Alcotest.(check bool) "SC forbids" false (allowed Axiomatic.Sc "MP");
  Alcotest.(check bool) "TSO forbids" false (allowed Axiomatic.Tso "MP");
  Alcotest.(check bool) "ARM allows" true (allowed Axiomatic.Arm "MP");
  Alcotest.(check bool) "fenced+dep forbidden" false (allowed Axiomatic.Arm "MP+dmb+addr");
  Alcotest.(check bool) "one-sided fence still weak" true (allowed Axiomatic.Arm "MP+dmb")

let test_ctrl_dependencies () =
  Alcotest.(check bool) "ctrl does not order R-R" true (allowed Axiomatic.Arm "MP+dmb+ctrl");
  Alcotest.(check bool) "ctrl+isb orders" false (allowed Axiomatic.Arm "MP+dmb+ctrl+isb")

let test_acquire_release () =
  Alcotest.(check bool) "MP+rel+acq forbidden" false (allowed Axiomatic.Arm "MP+rel+acq");
  Alcotest.(check bool) "SB+rel+acq forbidden (RCsc)" false
    (allowed Axiomatic.Arm "SB+rel+acq")

let test_multi_copy_atomicity () =
  (* The headline architectural difference. *)
  Alcotest.(check bool) "IRIW+addrs forbidden on ARMv8" false
    (allowed Axiomatic.Arm "IRIW+addrs");
  Alcotest.(check bool) "IRIW+addrs allowed on POWER" true
    (allowed Axiomatic.Power "IRIW+addrs");
  Alcotest.(check bool) "IRIW+syncs forbidden on POWER" false
    (allowed Axiomatic.Power "IRIW+syncs")

let test_power_fences () =
  Alcotest.(check bool) "lwsync no W-R order" true (allowed Axiomatic.Power "SB+lwsyncs");
  Alcotest.(check bool) "sync W-R order" false (allowed Axiomatic.Power "SB+syncs");
  Alcotest.(check bool) "lwsync+addr MP forbidden" false
    (allowed Axiomatic.Power "MP+lwsync+addr");
  Alcotest.(check bool) "ISA2 cumulativity" false
    (allowed Axiomatic.Power "ISA2+lwsync+data+addr")

let test_annotations_all_match () =
  (* Every annotation in the library agrees with the models - the
     library is the regression corpus for the model implementation. *)
  List.iter
    (fun (test : Test.t) ->
      List.iter
        (fun (model, expected) ->
          let actual = Check.axiomatic_allowed model test in
          if actual <> expected then
            Alcotest.failf "%s under %s: annotated %b, model says %b" test.Test.name
              (Axiomatic.model_name model) expected actual)
        test.Test.expected)
    Library.all

let test_monotonicity () =
  (* SC-allowed outcomes are TSO-allowed, and TSO-allowed are
     ARM-allowed, on every unfenced common-shape test. *)
  List.iter
    (fun (test : Test.t) ->
      let outcomes model = Enumerate.allowed_outcomes model test.Test.program in
      let subset a b =
        List.for_all (fun o -> List.exists (fun o' -> compare o o' = 0) b) a
      in
      let sc = outcomes Axiomatic.Sc in
      let tso = outcomes Axiomatic.Tso in
      let arm = outcomes Axiomatic.Arm in
      Alcotest.(check bool)
        (test.Test.name ^ ": SC subset of TSO")
        true (subset sc tso);
      Alcotest.(check bool)
        (test.Test.name ^ ": TSO subset of ARM")
        true (subset tso arm))
    Library.common

(* Execution-level derivations -------------------------------------- *)

let tiny_execution () =
  (* W x=1 (init), W x=2 by t0, R x=2 by t1; co: init -> W2; rf: W2 -> R. *)
  let events =
    [|
      { Event.id = 0; tid = -1; po_index = 0;
        action = Event.Write { loc = 0; value = 0; order = Instr.Plain } };
      { Event.id = 1; tid = 0; po_index = 0;
        action = Event.Write { loc = 0; value = 2; order = Instr.Plain } };
      { Event.id = 2; tid = 1; po_index = 0;
        action = Event.Read { loc = 0; value = 2; order = Instr.Plain } };
    |]
  in
  let rel = Bitrel.of_list 3 in
  {
    Execution.events;
    po = rel [];
    rf = rel [ (1, 2) ];
    co = rel [ (0, 1) ];
    addr = rel [];
    data = rel [];
    ctrl = rel [];
    rmw = rel [];
  }

let test_derived_relations () =
  let x = tiny_execution () in
  (* fr: the read of W2 from-reads nothing co-after W2. *)
  Alcotest.(check int) "fr empty" 0
    (Bitrel.cardinal (Execution.fr_of ~rf:x.Execution.rf ~co:x.Execution.co));
  Alcotest.(check bool) "rfe external" true
    (Bitrel.mem (Bitrel.inter (Execution.external_pairs x) x.Execution.rf) 1 2);
  Alcotest.(check int) "final memory" 2 (List.assoc 0 (Execution.final_memory x));
  (match Execution.well_formed x with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected well-formed: %s" m)

let test_well_formed_catches_bad_rf () =
  let x = tiny_execution () in
  let bad = { x with Execution.rf = Bitrel.of_list 3 [ (0, 2) ] } in
  (* rf value mismatch: read has value 2, init write has 0. *)
  match Execution.well_formed bad with
  | Ok () -> Alcotest.fail "expected ill-formed"
  | Error _ -> ()

let test_fr_derivation () =
  (* Read from init while a later write exists: fr edge to it. *)
  let x = tiny_execution () in
  let read_init =
    { Event.id = 2; tid = 1; po_index = 0;
      action = Event.Read { loc = 0; value = 0; order = Instr.Plain } }
  in
  let x' =
    { x with Execution.events = [| x.Execution.events.(0); x.Execution.events.(1); read_init |];
             rf = Bitrel.of_list 3 [ (0, 2) ] }
  in
  Alcotest.(check bool) "fr to overwriting store" true (Bitrel.mem (Execution.fr_of ~rf:x'.Execution.rf ~co:x'.Execution.co) 2 1)

(* Enumeration ------------------------------------------------------ *)

let test_enumerate_counts () =
  let sb = Option.get (Library.by_name "SB") in
  let sc = Enumerate.allowed_outcomes Axiomatic.Sc sb.Test.program in
  let tso = Enumerate.allowed_outcomes Axiomatic.Tso sb.Test.program in
  Alcotest.(check int) "SB under SC: 3 outcomes" 3 (List.length sc);
  Alcotest.(check int) "SB under TSO: 4 outcomes" 4 (List.length tso)

let test_enumerate_dependency_values () =
  (* A store whose value flows from a load must be enumerated through
     the value-pool fixpoint. *)
  let program =
    Program.make ~name:"flow" ~location_names:[| "x"; "y" |]
      [
        [| Instr.Store { src = Instr.Imm 7; addr = Instr.Imm 0; order = Instr.Plain } |];
        [|
          Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Store { src = Instr.Reg 1; addr = Instr.Imm 1; order = Instr.Plain };
        |];
      ]
  in
  let outcomes = Enumerate.allowed_outcomes Axiomatic.Sc program in
  let has_y v =
    List.exists (fun (o : Enumerate.outcome) -> List.assoc_opt 1 o.Enumerate.memory = Some v)
      outcomes
  in
  Alcotest.(check bool) "y can be 7" true (has_y 7);
  Alcotest.(check bool) "y can be 0" true (has_y 0)

let suite =
  [
    Alcotest.test_case "SB verdicts" `Quick test_sb_verdicts;
    Alcotest.test_case "MP verdicts" `Quick test_mp_verdicts;
    Alcotest.test_case "control dependencies" `Quick test_ctrl_dependencies;
    Alcotest.test_case "acquire/release" `Quick test_acquire_release;
    Alcotest.test_case "multi-copy atomicity" `Quick test_multi_copy_atomicity;
    Alcotest.test_case "POWER fences" `Quick test_power_fences;
    Alcotest.test_case "library annotations match models" `Slow test_annotations_all_match;
    Alcotest.test_case "SC subset TSO subset ARM" `Slow test_monotonicity;
    Alcotest.test_case "derived relations" `Quick test_derived_relations;
    Alcotest.test_case "well-formedness check" `Quick test_well_formed_catches_bad_rf;
    Alcotest.test_case "fr derivation" `Quick test_fr_derivation;
    Alcotest.test_case "enumeration counts" `Quick test_enumerate_counts;
    Alcotest.test_case "value-flow enumeration" `Quick test_enumerate_dependency_values;
  ]
