open Wmm_isa
open Wmm_model
open Wmm_machine
open Wmm_litmus

(* ISA-level classification ------------------------------------------ *)

let ldxr = Instr.Load_exclusive { dst = 1; addr = Instr.Imm 0; order = Instr.Plain }

let stxr =
  Instr.Store_exclusive { status = 3; src = Instr.Reg 2; addr = Instr.Imm 0; order = Instr.Plain }

let test_classification () =
  Alcotest.(check bool) "ldxr writes dst" true (Instr.output_reg ldxr = Some 1);
  Alcotest.(check bool) "stxr writes status" true (Instr.output_reg stxr = Some 3);
  Alcotest.(check (list int)) "stxr reads src" [ 2 ] (Instr.input_regs stxr);
  Alcotest.(check bool) "both memory accesses" true
    (Instr.is_memory_access ldxr && Instr.is_memory_access stxr)

let test_assembly () =
  Alcotest.(check string) "ldxr" "ldxr x1, &m0" (Asm.instr Arch.Armv8 ldxr);
  Alcotest.(check string) "stxr" "stxr x3, x2, &m0" (Asm.instr Arch.Armv8 stxr);
  let acq = Instr.Load_exclusive { dst = 1; addr = Instr.Imm 0; order = Instr.Acquire } in
  Alcotest.(check string) "ldaxr" "ldaxr x1, &m0" (Asm.instr Arch.Armv8 acq)

let test_parser () =
  let text =
    "AArch64 cas\n\
     { x=0 }\n\
     ldxr x1, &x ;\n\
     add x2, x1, #1 ;\n\
     stxr x3, x2, &x ;\n\
     exists (0:x3=0 /\\ x=1)\n"
  in
  match Parse.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
      Alcotest.(check bool) "single-thread CAS succeeds" true
        (Check.axiomatic_allowed Axiomatic.Sc p.Parse.test);
      let outcomes = Relaxed.enumerate Relaxed.relaxed_config p.Parse.test.Test.program in
      Alcotest.(check int) "deterministic" 1 (List.length outcomes);
      let o = List.hd outcomes in
      Alcotest.(check int) "status 0" 0 (List.assoc (0, 3) o.Relaxed.registers);
      Alcotest.(check int) "x incremented" 1 (List.assoc 0 o.Relaxed.memory)

(* Atomicity ---------------------------------------------------------- *)

let test_cas_both_forbidden_everywhere () =
  let t = Option.get (Library.by_name "CAS+both") in
  List.iter
    (fun model ->
      Alcotest.(check bool)
        (Axiomatic.model_name model ^ " forbids double success")
        false (Check.axiomatic_allowed model t))
    Axiomatic.all_models

let test_cas_racing_operational () =
  (* Exhaustive exploration of two racing CAS threads: exactly one
     succeeds whenever both read the same initial value. *)
  let t = Option.get (Library.by_name "CAS+one") in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config t.Test.program in
  List.iter
    (fun (o : Relaxed.outcome) ->
      let r1 t' = List.assoc (t', 1) o.Relaxed.registers in
      let status t' = List.assoc (t', 3) o.Relaxed.registers in
      if r1 0 = 0 && r1 1 = 0 then
        Alcotest.(check bool) "not both successful" false (status 0 = 0 && status 1 = 0))
    outcomes

let test_atomic_increment_loop () =
  (* The canonical retry loop: with two incrementing threads the
     final value is 2 in every reachable state. *)
  let thread =
    [|
      Instr.Load_exclusive { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
      Instr.Op { op = Instr.Add; dst = 2; a = Instr.Reg 1; b = Instr.Imm 1 };
      Instr.Store_exclusive
        { status = 3; src = Instr.Reg 2; addr = Instr.Imm 0; order = Instr.Plain };
      Instr.Cbnz { src = 3; offset = -4 };
    |]
  in
  let program =
    Program.make ~name:"incr" ~location_names:[| "x" |] [ thread; thread ]
  in
  let outcomes = Relaxed.enumerate ~max_states:200_000 Relaxed.relaxed_config program in
  Alcotest.(check bool) "some outcomes" true (outcomes <> []);
  List.iter
    (fun (o : Relaxed.outcome) ->
      Alcotest.(check int) "x = 2 always" 2 (List.assoc 0 o.Relaxed.memory))
    outcomes

let test_monitor_revoked_by_plain_store () =
  (* A plain store by another thread between ldxr and stxr makes the
     stxr fail in at least one interleaving. *)
  let program =
    Program.make ~name:"revoke" ~location_names:[| "x" |]
      [
        [|
          Instr.Load_exclusive { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Store_exclusive
            { status = 3; src = Instr.Imm 7; addr = Instr.Imm 0; order = Instr.Plain };
        |];
        [| Instr.Store { src = Instr.Imm 5; addr = Instr.Imm 0; order = Instr.Plain } |];
      ]
  in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config program in
  let failures =
    List.filter (fun (o : Relaxed.outcome) -> List.assoc (0, 3) o.Relaxed.registers = 1)
      outcomes
  in
  Alcotest.(check bool) "failure reachable" true (failures <> []);
  (* And when the exclusive fails, its store never lands. *)
  List.iter
    (fun (o : Relaxed.outcome) ->
      if List.assoc (0, 3) o.Relaxed.registers = 1 then
        Alcotest.(check bool) "no stray write" true (List.assoc 0 o.Relaxed.memory <> 7))
    failures

let test_atomicity_axiom_direct () =
  (* Hand-built execution violating atomicity: rmw (r, w) with an
     external write co-between. *)
  let events =
    [|
      { Event.id = 0; tid = -1; po_index = 0;
        action = Event.Write { loc = 0; value = 0; order = Instr.Plain } };
      { Event.id = 1; tid = 0; po_index = 0;
        action = Event.Read { loc = 0; value = 0; order = Instr.Plain } };
      { Event.id = 2; tid = 0; po_index = 1;
        action = Event.Write { loc = 0; value = 1; order = Instr.Plain } };
      { Event.id = 3; tid = 1; po_index = 0;
        action = Event.Write { loc = 0; value = 5; order = Instr.Plain } };
    |]
  in
  let rel = Bitrel.of_list 4 in
  let x =
    {
      Execution.events;
      po = rel [ (1, 2) ];
      rf = rel [ (0, 1) ];
      co = rel [ (0, 3); (3, 2); (0, 2) ];
      addr = rel [];
      data = rel [];
      ctrl = rel [];
      rmw = rel [ (1, 2) ];
    }
  in
  Alcotest.(check bool) "atomicity violated" false (Axiomatic.consistent Axiomatic.Sc x);
  let without_rmw = { x with Execution.rmw = rel [] } in
  Alcotest.(check bool) "fine without the rmw pair" true
    (Axiomatic.consistent Axiomatic.Sc without_rmw)

(* Store-conditional failure path -------------------------------------- *)

(* T0 runs a single-attempt increment; T1's plain store can revoke the
   monitor.  Built at any exclusive-access order so both the plain
   (ldxr/stxr) and ordered (ldaxr/stlxr) flavours are covered. *)
let stx_failure_program order =
  Program.make ~name:"stx-fail" ~location_names:[| "x" |]
    [
      [|
        Instr.Load_exclusive { dst = 1; addr = Instr.Imm 0; order };
        Instr.Op { op = Instr.Add; dst = 2; a = Instr.Reg 1; b = Instr.Imm 1 };
        Instr.Store_exclusive { status = 3; src = Instr.Reg 2; addr = Instr.Imm 0; order };
      |];
      [| Instr.Store { src = Instr.Imm 7; addr = Instr.Imm 0; order = Instr.Plain } |];
    ]

let hw_models = [ Axiomatic.Arm; Axiomatic.Power ]

let test_stx_failure_axiomatic () =
  List.iter
    (fun order ->
      let p = stx_failure_program order in
      List.iter
        (fun model ->
          let name fmt = Printf.sprintf fmt (Axiomatic.model_name model) in
          (* The failure path: T1's write lands co-between the
             exclusive pair, the store-conditional reports 1. *)
          Alcotest.(check bool) (name "%s: failure outcome reachable") true
            (Enumerate.outcome_allowed model p
               { Enumerate.registers = [ ((0, 3), 1) ]; memory = [ (0, 7) ] });
          (* A failed store-conditional must not have written: status 1
             with the increment in memory is an atomicity violation. *)
          Alcotest.(check bool) (name "%s: failed stx writes nothing") false
            (Enumerate.outcome_allowed model p
               { Enumerate.registers = [ ((0, 3), 1) ]; memory = [ (0, 1) ] });
          (* The success path still exists. *)
          Alcotest.(check bool) (name "%s: success outcome reachable") true
            (Enumerate.outcome_allowed model p
               { Enumerate.registers = [ ((0, 1), 0); ((0, 3), 0) ]; memory = [] }))
        hw_models)
    [ Instr.Plain; Instr.Acquire ]

let test_stx_failure_machine () =
  List.iter
    (fun order ->
      let p = stx_failure_program order in
      let outcomes = Relaxed.enumerate Relaxed.relaxed_config p in
      let failures =
        List.filter (fun (o : Relaxed.outcome) -> List.assoc (0, 3) o.Relaxed.registers = 1)
          outcomes
      in
      Alcotest.(check bool) "machine reaches the failure path" true (failures <> []);
      List.iter
        (fun (o : Relaxed.outcome) ->
          (* Failure means T1's store won the location. *)
          Alcotest.(check int) "failed stx leaves the racing store" 7
            (List.assoc 0 o.Relaxed.memory))
        failures;
      (* Machine containment on the failure path: every operational
         outcome is axiomatically allowed on both architectures. *)
      List.iter
        (fun (o : Relaxed.outcome) ->
          List.iter
            (fun model ->
              Alcotest.(check bool)
                (Axiomatic.model_name model ^ " allows machine outcome") true
                (Enumerate.outcome_allowed model p
                   { Enumerate.registers = o.Relaxed.registers; memory = o.Relaxed.memory }))
            hw_models)
        outcomes)
    [ Instr.Plain; Instr.Acquire ]

let suite =
  [
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "assembly" `Quick test_assembly;
    Alcotest.test_case "parser + single-thread CAS" `Quick test_parser;
    Alcotest.test_case "CAS+both forbidden everywhere" `Quick
      test_cas_both_forbidden_everywhere;
    Alcotest.test_case "racing CAS operational" `Quick test_cas_racing_operational;
    Alcotest.test_case "atomic increment loop" `Quick test_atomic_increment_loop;
    Alcotest.test_case "monitor revoked by plain store" `Quick
      test_monitor_revoked_by_plain_store;
    Alcotest.test_case "atomicity axiom direct" `Quick test_atomicity_axiom_direct;
    Alcotest.test_case "stx failure path axiomatic" `Quick test_stx_failure_axiomatic;
    Alcotest.test_case "stx failure path machine" `Quick test_stx_failure_machine;
  ]
