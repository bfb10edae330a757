(* The differential conformance harness: a clean battery produces no
   disagreements across all three layers; a model copy with one axiom
   planted out (sc-per-location ignored by the oracle) is detected,
   reported against the right layer, and shrunk to a minimal failing
   test; and conformance tasks replay from the result cache. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
open Wmm_synth

let battery arch n =
  List.filteri
    (fun i _ -> i < n)
    (List.map (fun g -> g.Synth.g_test) (Synth.generate ~max_edges:3 arch))

let test_clean () =
  List.iter
    (fun arch ->
      let engine = Wmm_engine.Engine.create ~jobs:0 () in
      let report =
        Conform.run
          ~config:{ Conform.default_config with infer_limit = 6 }
          ~engine ~arch (battery arch 40)
      in
      Alcotest.(check int)
        (Arch.name arch ^ " clean battery: no disagreements")
        0
        (List.length report.Conform.disagreements);
      Alcotest.(check bool)
        (Arch.name arch ^ " explore layer ran")
        true
        (report.Conform.explore_checks > 0);
      Alcotest.(check bool)
        (Arch.name arch ^ " machine layer ran")
        true
        (report.Conform.machine_checks > 0);
      Alcotest.(check int) (Arch.name arch ^ " inference layer ran") 6
        report.Conform.infer_checks)
    [ Arch.Armv8; Arch.Power7 ]

(* A test-only weakened model: the oracle admits candidate executions
   that violate sc-per-location (and only that axiom), as if the
   coherence axiom had been dropped from the model definition. *)
let weakened_oracle =
  {
    Conform.oracle_id = "test/planted-sc-per-location";
    outcomes =
      (fun model p ->
        Reference.candidate_executions p
        |> List.filter_map (fun (x, o) ->
               let violations = Axiomatic.violations model x in
               if List.for_all (fun v -> v = "sc-per-location") violations then Some o
               else None)
        |> List.sort_uniq Enumerate.compare_outcome);
  }

let instr_count (t : Test.t) =
  Array.fold_left
    (fun acc th -> acc + Array.length th)
    0 t.Test.program.Program.threads

let test_planted_bug () =
  let engine = Wmm_engine.Engine.create ~jobs:0 () in
  let tests = battery Arch.Armv8 30 in
  let report =
    Conform.run
      ~config:
        {
          Conform.default_config with
          oracle = weakened_oracle;
          machine = false;
          infer_limit = 0;
        }
      ~engine ~arch:Arch.Armv8 tests
  in
  Alcotest.(check bool)
    "planted axiom weakening is detected" true
    (report.Conform.disagreements <> []);
  List.iter
    (fun (d : Conform.disagreement) ->
      Alcotest.(check bool)
        "disagreement is reported against the explore layer" true
        (d.Conform.layer = Conform.Explore);
      (* Shrinking must reach a minimal witness: sc-per-location
         failures reduce to two accesses on a single thread (tests that
         start out that small, e.g. CoWR, stay put). *)
      Alcotest.(check bool)
        (d.Conform.test.Test.name ^ " shrinks to at most two instructions")
        true
        (instr_count d.Conform.shrunk <= 2
        && instr_count d.Conform.shrunk <= instr_count d.Conform.test);
      Alcotest.(check bool)
        (d.Conform.test.Test.name ^ " shrinks to a single thread")
        true
        (Array.length d.Conform.shrunk.Test.program.Program.threads = 1);
      (* The shrunk witness still fails the same check. *)
      let still_fails (t : Test.t) =
        let p = t.Test.program in
        let sorted l = List.sort_uniq Enumerate.compare_outcome l in
        sorted (Enumerate.allowed_outcomes Axiomatic.Tso p)
        <> sorted (weakened_oracle.Conform.outcomes Axiomatic.Tso p)
      in
      Alcotest.(check bool)
        (d.Conform.test.Test.name ^ " shrunk witness still disagrees")
        true
        (match d.Conform.model with
        | Some Axiomatic.Tso -> still_fails d.Conform.shrunk
        | _ -> true))
    report.Conform.disagreements

let test_render_mentions_disagreement () =
  let engine = Wmm_engine.Engine.create ~jobs:0 () in
  let report =
    Conform.run
      ~config:
        {
          Conform.default_config with
          oracle = weakened_oracle;
          machine = false;
          infer_limit = 0;
        }
      ~engine ~arch:Arch.Armv8 (battery Arch.Armv8 10)
  in
  let rendered = Conform.render report in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  if report.Conform.disagreements <> [] then begin
    Alcotest.(check bool)
      "render names the layer" true
      (contains rendered "explore-vs-oracle");
    Alcotest.(check bool) "render shows litmus syntax" true (contains rendered "exists")
  end

let test_cached_rerun () =
  let dir = Filename.temp_file "wmm_conform_cache" "" in
  Sys.remove dir;
  let cache () = Wmm_engine.Cache.create ~dir () in
  let tests = battery Arch.Armv8 12 in
  let run () =
    let engine = Wmm_engine.Engine.create ~jobs:1 ~cache:(cache ()) () in
    let report =
      Conform.run
        ~config:{ Conform.default_config with infer_limit = 0 }
        ~engine ~arch:Arch.Armv8 tests
    in
    (report, Wmm_engine.Engine.summary engine)
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  Alcotest.(check int) "first run computes" s1.Wmm_engine.Telemetry.total
    s1.Wmm_engine.Telemetry.ran;
  Alcotest.(check int) "second run is fully cached" 0 s2.Wmm_engine.Telemetry.ran;
  Alcotest.(check int) "reports agree" (List.length r1.Conform.disagreements)
    (List.length r2.Conform.disagreements)

let suite =
  [
    Alcotest.test_case "clean battery conforms (all layers)" `Quick test_clean;
    Alcotest.test_case "planted axiom weakening detected and shrunk" `Quick
      test_planted_bug;
    Alcotest.test_case "report renders shrunk litmus tests" `Quick
      test_render_mentions_disagreement;
    Alcotest.test_case "conformance tasks replay from cache" `Quick test_cached_rerun;
  ]
