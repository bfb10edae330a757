open Wmm_isa
open Wmm_machine
open Wmm_model
open Wmm_litmus

let program_of name = (Option.get (Library.by_name name)).Test.program

let test_determinism () =
  let p = program_of "SB" in
  let a, _ = Relaxed.run_traced Relaxed.relaxed_config ~seed:5 p in
  let b, _ = Relaxed.run_traced Relaxed.relaxed_config ~seed:5 p in
  Alcotest.(check int) "same outcome" 0 (Relaxed.compare_outcome a b)

let test_single_thread_sequential () =
  (* A single thread behaves sequentially under every config. *)
  let p =
    Program.make ~name:"seq" ~location_names:[| "x" |]
      [
        [|
          Instr.Store { src = Instr.Imm 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Store { src = Instr.Imm 2; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Load { dst = 2; addr = Instr.Imm 0; order = Instr.Plain };
        |];
      ]
  in
  List.iter
    (fun config ->
      let outcomes = Relaxed.enumerate config p in
      Alcotest.(check int) "single outcome" 1 (List.length outcomes);
      let o = List.hd outcomes in
      Alcotest.(check int) "r1 forwards 1" 1 (List.assoc (0, 1) o.Relaxed.registers);
      Alcotest.(check int) "r2 forwards 2" 2 (List.assoc (0, 2) o.Relaxed.registers);
      Alcotest.(check int) "final x" 2 (List.assoc 0 o.Relaxed.memory))
    [ Relaxed.sc_config; Relaxed.tso_config; Relaxed.relaxed_config ]

let test_registers_computed () =
  let p =
    Program.make ~name:"alu" ~location_names:[| "x" |]
      [
        [|
          Instr.Mov { dst = 1; src = Instr.Imm 5 };
          Instr.Op { op = Instr.Add; dst = 2; a = Instr.Reg 1; b = Instr.Imm 3 };
          Instr.Op { op = Instr.Xor; dst = 3; a = Instr.Reg 2; b = Instr.Reg 2 };
        |];
      ]
  in
  let o, _ = Relaxed.run_traced Relaxed.relaxed_config ~seed:1 p in
  Alcotest.(check int) "mov" 5 (List.assoc (0, 1) o.Relaxed.registers);
  Alcotest.(check int) "add" 8 (List.assoc (0, 2) o.Relaxed.registers);
  Alcotest.(check int) "xor self" 0 (List.assoc (0, 3) o.Relaxed.registers)

let test_branch_loop () =
  (* A small countdown loop: mov r1 3; subs-like decrement via add -1;
     cbnz back. *)
  let p =
    Program.make ~name:"loop" ~location_names:[| "x" |]
      [
        [|
          Instr.Mov { dst = 1; src = Instr.Imm 3 };
          Instr.Op { op = Instr.Add; dst = 1; a = Instr.Reg 1; b = Instr.Imm (-1) };
          Instr.Cbnz { src = 1; offset = -2 };
          Instr.Store { src = Instr.Imm 9; addr = Instr.Imm 0; order = Instr.Plain };
        |];
      ]
  in
  let o, _ = Relaxed.run_traced Relaxed.relaxed_config ~seed:2 p in
  Alcotest.(check int) "loop exited with r1=0" 0 (List.assoc (0, 1) o.Relaxed.registers);
  Alcotest.(check int) "store after loop" 9 (List.assoc 0 o.Relaxed.memory)

let test_sc_machine_matches_sc_model () =
  (* On the common shapes the SC machine's reachable outcomes are
     exactly the SC-allowed outcomes. *)
  List.iter
    (fun (test : Test.t) ->
      let operational = Relaxed.enumerate Relaxed.sc_config test.Test.program in
      let axiomatic = Enumerate.allowed_outcomes Axiomatic.Sc test.Test.program in
      let to_pairs (o : Relaxed.outcome) = (o.Relaxed.registers, o.Relaxed.memory) in
      let ax_pairs =
        List.map
          (fun (o : Enumerate.outcome) -> (o.Enumerate.registers, o.Enumerate.memory))
          axiomatic
      in
      List.iter
        (fun o ->
          if not (List.mem (to_pairs o) ax_pairs) then
            Alcotest.failf "%s: SC machine outcome not SC-allowed" test.Test.name)
        operational)
    Library.common

let test_relaxed_subset_of_arm () =
  (* Soundness: the relaxed machine never reaches an ARM-forbidden
     state on any test in the library. *)
  List.iter
    (fun (test : Test.t) ->
      let operational = Relaxed.enumerate Relaxed.relaxed_config test.Test.program in
      let axiomatic = Enumerate.allowed_outcomes Axiomatic.Arm test.Test.program in
      let ax_pairs =
        List.map
          (fun (o : Enumerate.outcome) -> (o.Enumerate.registers, o.Enumerate.memory))
          axiomatic
      in
      List.iter
        (fun (o : Relaxed.outcome) ->
          if not (List.mem (o.Relaxed.registers, o.Relaxed.memory) ax_pairs) then
            Alcotest.failf "%s: relaxed machine exceeded the ARM model" test.Test.name)
        operational)
    (Library.coherence @ Library.common @ Library.arm)

let test_store_buffering_observed () =
  let p = program_of "SB" in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config p in
  let weak =
    List.exists
      (fun (o : Relaxed.outcome) ->
        List.assoc (0, 1) o.Relaxed.registers = 0 && List.assoc (1, 1) o.Relaxed.registers = 0)
      outcomes
  in
  Alcotest.(check bool) "SB weak outcome reachable" true weak

let test_collect_histogram () =
  (* 500 randomly scheduled runs of SB reach several outcomes, each
     one the exhaustive search also reaches. *)
  let p = program_of "SB" in
  let reachable = Relaxed.enumerate Relaxed.relaxed_config p in
  let seen =
    List.init 500 (fun i -> fst (Relaxed.run_traced Relaxed.relaxed_config ~seed:(3 + i) p))
    |> List.sort_uniq Relaxed.compare_outcome
  in
  Alcotest.(check bool) "several distinct outcomes" true (List.length seen >= 3);
  List.iter
    (fun o ->
      if not (List.exists (fun o' -> Relaxed.compare_outcome o o' = 0) reachable) then
        Alcotest.fail "a random run reached an outcome the search does not list")
    seen

let test_full_fence_drains () =
  (* dmb between store and load: the load cannot see a stale remote
     value while our store is buffered.  SB+dmbs weak outcome must be
     unreachable. *)
  let p = program_of "SB+dmbs" in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config p in
  List.iter
    (fun (o : Relaxed.outcome) ->
      let r0 = List.assoc (0, 1) o.Relaxed.registers in
      let r1 = List.assoc (1, 1) o.Relaxed.registers in
      if r0 = 0 && r1 = 0 then Alcotest.fail "dmb failed to forbid SB")
    outcomes

let prop_random_runs_within_enumerated =
  QCheck.Test.make ~name:"random outcomes within enumerated set" ~count:30
    QCheck.small_int (fun seed ->
      let p = program_of "MP" in
      let enumerated = Relaxed.enumerate Relaxed.relaxed_config p in
      let o, _ = Relaxed.run_traced Relaxed.relaxed_config ~seed p in
      List.exists (fun o' -> Relaxed.compare_outcome o o' = 0) enumerated)

(* A store must wait for an older load barrier ([dmb ishld],
   [Fence_acq]) to execute.  A machine that let the store pass reached
   the ARMv8-forbidden outcome of these bound-6 LB shapes. *)
let test_store_waits_for_load_barrier () =
  let family = Wmm_synth.Synth.generate Arch.Armv8 in
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun (g : Wmm_synth.Synth.generated) -> g.Wmm_synth.Synth.g_test.Test.name = name)
          family
      with
      | None -> Alcotest.failf "%s is not in the bound-6 ARMv8 family" name
      | Some g ->
          let model = Axiomatic.Arm in
          let t = g.Wmm_synth.Synth.g_test in
          let v = Check.run_exhaustive model (Check.machine_config model) t in
          Alcotest.(check bool) (name ^ ": ARMv8 forbids the condition") false
            v.Check.axiomatic_allowed;
          Alcotest.(check bool) (name ^ ": the machine never reaches it") false
            v.Check.observed)
    [ "LB+dmb.ld+data"; "LB+dmb+dmb.ld"; "3.LB+dmb+addr+dmb.ld" ]

(* The outcome golden (test/data/machine_golden.txt), regenerated by
   `dune exec test/gen_machine_golden.exe > test/data/machine_golden.txt`
   after a deliberate change to the machine's semantics. *)
let golden_lines () =
  (* `dune runtest` runs in test/; `dune exec test/test_main.exe` in
     the project root. *)
  let path =
    if Sys.file_exists "data/machine_golden.txt" then "data/machine_golden.txt"
    else "test/data/machine_golden.txt"
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check_golden what ~golden ~got =
  let rec first_diff i = function
    | g :: gs, e :: es -> if g = e then first_diff (i + 1) (gs, es) else Some (i, g, e)
    | g :: _, [] -> Some (i, g, "<end of golden lines>")
    | [], e :: _ -> Some (i, "<end of generated lines>", e)
    | [], [] -> None
  in
  match first_diff 1 (got, golden) with
  | None -> ()
  | Some (i, g, e) ->
      Alcotest.failf "%s: machine golden differs at line %d:\n  generated: %s\n  golden:    %s"
        what i g e

let is_bound6 l = String.starts_with ~prefix:"bound6/" l

let test_golden_library_bound4 () =
  check_golden "library and bound-4"
    ~golden:(List.filter (fun l -> not (is_bound6 l)) (golden_lines ()))
    ~got:(Machine_golden.library_lines () @ Machine_golden.bound4_lines ())

let reaches (t : Test.t) (o : Relaxed.outcome) =
  Test.condition_matches t.Test.condition o.Relaxed.registers
  && List.for_all
       (fun (l, v) -> Option.value (List.assoc_opt l o.Relaxed.memory) ~default:0 = v)
       t.Test.mem_condition

(* The stopping search answers what the full enumeration answers: a
   verdict's [observed] is whether some enumerated final state
   satisfies the condition. *)
let check_stop_agrees what triples =
  List.iter
    (fun ((t : Test.t), model, outs) ->
      let enumerated = List.exists (reaches t) outs in
      if Check.machine_observes (Check.machine_config model) t <> enumerated then
        Alcotest.failf "%s: %s under %s: the stopping search says %b, the enumeration %b"
          what t.Test.name (Axiomatic.model_name model) (not enumerated) enumerated)
    triples

let test_stop_agrees_with_enumeration () =
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun model ->
          let v = Check.run_exhaustive model (Check.machine_config model) t in
          let enumerated = List.exists (reaches t) (Machine_golden.outcomes model t) in
          if v.Check.observed <> enumerated then
            Alcotest.failf "library: %s under %s: observed %b, the enumeration %b"
              t.Test.name (Axiomatic.model_name model) v.Check.observed enumerated)
        Axiomatic.all_models)
    Library.all;
  List.iter
    (fun arch ->
      check_stop_agrees ("bound-4 " ^ Arch.name arch) (Machine_golden.family ~max_edges:4 arch))
    Machine_golden.archs

(* Soundness at the full synthesized bound: on both bound-6 families,
   under every verdict model, the machine never reaches a condition
   the model forbids, its outcome sets match the golden, and the
   stopping search agrees with the enumeration. *)
let test_bound6_sound_and_golden () =
  let golden = golden_lines () in
  List.iter
    (fun arch ->
      let triples = Machine_golden.family arch in
      check_stop_agrees ("bound-6 " ^ Arch.name arch) triples;
      let unsound =
        List.filter_map
          (fun ((t : Test.t), model, outs) ->
            if List.exists (reaches t) outs && not (Check.axiomatic_allowed model t) then
              Some (Printf.sprintf "%s under %s" t.Test.name (Axiomatic.model_name model))
            else None)
          triples
      in
      if unsound <> [] then
        Alcotest.failf "%s: %d unsound verdicts, e.g. %s" (Arch.name arch)
          (List.length unsound) (List.hd unsound);
      let prefix = Printf.sprintf "bound6/%s|" (Arch.name arch) in
      check_golden prefix
        ~golden:(List.filter (String.starts_with ~prefix) golden)
        ~got:(Machine_golden.bound6_lines arch triples))
    Machine_golden.archs

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "single thread sequential" `Quick test_single_thread_sequential;
    Alcotest.test_case "register computation" `Quick test_registers_computed;
    Alcotest.test_case "branch loop" `Quick test_branch_loop;
    Alcotest.test_case "SC machine = SC model" `Slow test_sc_machine_matches_sc_model;
    Alcotest.test_case "relaxed machine within ARM model" `Slow test_relaxed_subset_of_arm;
    Alcotest.test_case "store buffering observed" `Quick test_store_buffering_observed;
    Alcotest.test_case "collect histogram" `Quick test_collect_histogram;
    Alcotest.test_case "full fence forbids SB" `Quick test_full_fence_drains;
    QCheck_alcotest.to_alcotest prop_random_runs_within_enumerated;
    Alcotest.test_case "store waits for a load barrier" `Quick
      test_store_waits_for_load_barrier;
    Alcotest.test_case "machine golden: library and bound-4" `Quick
      test_golden_library_bound4;
    Alcotest.test_case "bound-6 soundness and machine golden" `Slow
      test_bound6_sound_and_golden;
    Alcotest.test_case "stopping search agrees with enumeration" `Slow
      test_stop_agrees_with_enumeration;
  ]
