open Wmm_model
open Wmm_machine
open Wmm_litmus

let test_library_programs_valid () =
  List.iter
    (fun (t : Test.t) ->
      match Wmm_isa.Program.validate t.Test.program with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    Library.all

let test_library_nonempty_battery () =
  Alcotest.(check bool) "at least 25 tests" true (List.length Library.all >= 25);
  Alcotest.(check bool) "coherence + common + atomics + arm + power partition" true
    (List.length Library.all
    = List.length Library.coherence + List.length Library.common
      + List.length Library.atomics + List.length Library.arm + List.length Library.power)

let test_for_model_filters () =
  List.iter
    (fun t ->
      Alcotest.(check bool) "has POWER annotation" true
        (Test.expected_under t Axiomatic.Power <> None))
    (Library.for_model Axiomatic.Power)

let test_condition_matching () =
  Alcotest.(check bool) "matches" true
    (Test.condition_matches [ ((0, 1), 5) ] [ ((0, 1), 5); ((0, 2), 0) ]);
  Alcotest.(check bool) "value mismatch" false
    (Test.condition_matches [ ((0, 1), 5) ] [ ((0, 1), 4) ]);
  Alcotest.(check bool) "missing register" false
    (Test.condition_matches [ ((1, 3), 1) ] [ ((0, 1), 1) ])

let test_random_runs_sound () =
  (* Random scheduling across the whole battery: every randomly
     scheduled run of every machine lands in the outcome set its
     exhaustive search reports. *)
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun config ->
          let reachable = Relaxed.enumerate config t.Test.program in
          for seed = 1 to 20 do
            let o, _ = Relaxed.run_traced config ~seed t.Test.program in
            if not (List.exists (fun o' -> Relaxed.compare_outcome o o' = 0) reachable)
            then Alcotest.failf "%s: seed %d reached an unlisted outcome" t.Test.name seed
          done)
        [ Relaxed.sc_config; Relaxed.tso_config; Relaxed.relaxed_config ])
    Library.all

let test_exhaustive_battery_sound () =
  (* The definitive check: exhaustive operational exploration never
     observes a model-forbidden outcome, and every annotation matches
     the model. *)
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun model ->
          if Test.expected_under t model <> None then begin
            let v = Check.run_exhaustive model (Check.machine_config model) t in
            if not (Check.sound v) then Alcotest.failf "unsound: %s" (Check.describe v)
          end)
        Axiomatic.all_models)
    Library.all

let test_weak_outcomes_actually_observed () =
  (* The relaxed machine is not vacuous: the classic weak behaviours
     are genuinely exhibited. *)
  List.iter
    (fun name ->
      let t = Option.get (Library.by_name name) in
      let v = Check.run_exhaustive Axiomatic.Arm Relaxed.relaxed_config t in
      Alcotest.(check bool) (name ^ " observed") true v.Check.observed)
    [ "SB"; "MP"; "LB"; "S"; "R"; "2+2W"; "WRC"; "IRIW"; "MP+dmb"; "SB+lwsyncs" ]

let test_describe_format () =
  let t = Option.get (Library.by_name "SB") in
  let v = Check.run_exhaustive Axiomatic.Arm Relaxed.relaxed_config t in
  let s = Check.describe v in
  Alcotest.(check bool) "mentions test name" true
    (String.length s > 2 && String.sub s 0 2 = "SB")

let suite =
  [
    Alcotest.test_case "programs valid" `Quick test_library_programs_valid;
    Alcotest.test_case "battery size and partition" `Quick test_library_nonempty_battery;
    Alcotest.test_case "for_model filters" `Quick test_for_model_filters;
    Alcotest.test_case "condition matching" `Quick test_condition_matching;
    Alcotest.test_case "random battery sound" `Quick test_random_runs_sound;
    Alcotest.test_case "exhaustive battery sound" `Slow test_exhaustive_battery_sound;
    Alcotest.test_case "weak outcomes observed" `Slow test_weak_outcomes_actually_observed;
    Alcotest.test_case "describe format" `Quick test_describe_format;
  ]
