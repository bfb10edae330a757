open Wmm_isa
open Wmm_model
open Wmm_litmus

(* The exploration core: the graph engine and the certificates'
   candidate walk must be outcome-identical to the generate-and-filter
   enumerator (the test library [Reference]), the walk must count
   Reference's candidates, and the engine's pruning/consistency
   counters must behave sanely. *)

(* --- permutations: duplicate elements are kept ------------------- *)

let test_permutations_duplicates () =
  let perms = Reference.permutations [ 1; 1; 2 ] in
  Alcotest.(check int) "3! permutations even with duplicates" 6 (List.length perms);
  List.iter
    (fun p ->
      Alcotest.(check int) "each keeps all elements" 3 (List.length p);
      Alcotest.(check (list int)) "each is a rearrangement" [ 1; 1; 2 ] (List.sort compare p))
    perms;
  Alcotest.(check int) "three distinct orders" 3
    (List.length (List.sort_uniq compare perms));
  Alcotest.(check int) "4 distinct elements, 24 perms" 24
    (List.length (Reference.permutations [ 1; 2; 3; 4 ]))

let outcomes_equal = List.equal (fun a b -> Enumerate.compare_outcome a b = 0)

(* --- synthetic worst cases (same shapes the benchmark times) ----- *)

let st loc v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm loc; order = Instr.Plain }
let ld r loc = Instr.Load { dst = r; addr = Instr.Imm loc; order = Instr.Plain }

let iriw3 =
  Program.make ~name:"IRIW+3w" ~location_names:[| "x"; "y" |]
    [
      [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |];
      [| st 1 1 |]; [| st 1 2 |]; [| st 1 3 |];
      [| ld 0 0; ld 1 1 |];
      [| ld 2 1; ld 3 0 |];
    ]

(* The benchmark ladder's IRIW+3w: location-private values (x takes
   1-3, y takes 4-6), so each writer triple is a renamed symmetry
   group - two groups, 36 permutations.  [iriw3] above writes 1-3 to
   both locations and has no group. *)
let iriw3_sym =
  Program.make ~name:"IRIW+3w-sym" ~location_names:[| "x"; "y" |]
    [
      [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |];
      [| st 1 4 |]; [| st 1 5 |]; [| st 1 6 |];
      [| ld 0 0; ld 1 1 |];
      [| ld 2 1; ld 3 0 |];
    ]

let co_storm =
  Program.make ~name:"co-storm" ~location_names:[| "x" |]
    [
      [| st 0 1; st 0 2 |];
      [| st 0 3; st 0 4 |];
      [| st 0 5; st 0 6 |];
      [| ld 0 0; ld 1 0 |];
    ]

(* Three renamed writers plus one reader: a group of 3! = 6. *)
let ren3_reader =
  Program.make ~name:"ren3+reader" ~location_names:[| "x" |]
    [ [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |]; [| ld 0 0; ld 1 0 |] ]

(* The corners of the rule that skips a dead run combination (one with
   a read no write can feed) before its skeleton.  Nothing in the
   library reads a nonzero initial value or a value only a
   store-exclusive writes; a value written only po-later in the
   reading thread makes a live combination whose candidate every model
   forbids.  test_cert certifies each under every model. *)
let live_corner_cases =
  let all m = List.map (fun model -> (model, m)) Axiomatic.all_models in
  [
    Test.make ~name:"init-read" ~description:"a read of a nonzero initial value"
      ~locations:[| "x" |] ~init:[ (0, 5) ]
      ~threads:[ [| Test.ldr ~dst:0 ~loc:0 |]; [| Test.str ~value:1 ~loc:0 |] ]
      ~condition:[ ((0, 0), 5) ] ~expected:(all true) ();
    Test.make ~name:"stx-write" ~description:"a value only a store-exclusive writes"
      ~locations:[| "x" |]
      ~threads:
        [
          [| Test.addi ~dst:2 ~src:2 1; Test.ldxr ~dst:1 ~loc:0; Test.stxr ~status:0 ~src:2 ~loc:0 |];
          [| Test.ldr ~dst:0 ~loc:0 |];
        ]
      ~condition:[ ((1, 0), 1) ] ~expected:(all true) ();
    Test.make ~name:"po-later-write" ~description:"a value written only po-later by the reader"
      ~locations:[| "x" |]
      ~threads:[ [| Test.ldr ~dst:0 ~loc:0; Test.str ~value:1 ~loc:0 |] ]
      ~condition:[ ((0, 0), 1) ] ~expected:(all false) ();
  ]

let live_corners = List.map (fun (t : Test.t) -> t.Test.program) live_corner_cases

(* Reference outcome sets of the synthetic shapes, shared by the tests
   that compare against them: the reference enumerator is the slow
   side of every comparison. *)
let reference_outcomes =
  let memo = Hashtbl.create 16 in
  fun model (p : Program.t) ->
    let key = (p.Program.name, model) in
    match Hashtbl.find_opt memo key with
    | Some o -> o
    | None ->
        let o = Reference.allowed_outcomes model p in
        Hashtbl.add memo key o;
        o

(* --- golden: the candidate walk equals reference ------------------ *)

(* [Enumerate.walk] is the rf/co search that certificate claims are
   drawn from.  Exhausted (its predicate never holds), it must count
   exactly Reference's candidates: a forbidden certificate carries
   that count.  Filtered by the model, the same walk must reach
   Reference's outcome set. *)
let consistent_under model cands =
  List.filter (fun ((x : Execution.t), _) -> Axiomatic.consistent model x) cands

let check_search_golden model (p : Program.t) =
  let label = Printf.sprintf "%s/%s" p.Program.name (Axiomatic.model_name model) in
  let count =
    match Enumerate.walk model p (fun _ -> false) with
    | Enumerate.Exhausted count -> count
    | Enumerate.Witness _ -> Alcotest.failf "%s: a predicate that never holds matched" label
  in
  Alcotest.(check int) (label ^ " candidate count")
    (List.fold_left (fun n (_, xs) -> n + List.length xs) 0 (Reference.combinations p))
    count;
  let walked = Enumerate.filtered_outcomes model p and slow = reference_outcomes model p in
  if not (outcomes_equal walked slow) then
    Alcotest.failf "%s: walk %d outcomes, reference %d" label (List.length walked)
      (List.length slow)

let test_golden_library model () =
  List.iter (fun (t : Test.t) -> check_search_golden model t.Test.program) Library.all

let test_golden_synthetic () =
  List.iter
    (fun (p, model) -> check_search_golden model p)
    ([ (iriw3, Axiomatic.Arm); (co_storm, Axiomatic.Tso) ]
    @ List.concat_map (fun p -> List.map (fun m -> (p, m)) Axiomatic.all_models) live_corners)

(* --- graph engine: golden vs reference, all five models ---------- *)

let test_graph_golden_library model () =
  List.iter
    (fun (t : Test.t) ->
      let p = t.Test.program in
      let graph = Enumerate.allowed_outcomes model p in
      let slow = Reference.allowed_outcomes model p in
      if not (outcomes_equal graph slow) then
        Alcotest.failf "%s under %s: graph %d outcomes, reference %d" t.Test.name
          (Axiomatic.model_name model)
          (List.length graph) (List.length slow))
    Library.all

let test_graph_golden_synthetic () =
  List.iter
    (fun model ->
      List.iter
        (fun (p : Program.t) ->
          let graph = Enumerate.allowed_outcomes model p in
          let slow = reference_outcomes model p in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s graph = reference" p.Program.name
               (Axiomatic.model_name model))
            true (outcomes_equal graph slow))
        ([ iriw3; iriw3_sym; co_storm ] @ live_corners))
    Axiomatic.all_models

(* A deterministic slice of the synthesized battery: shapes (address
   dependencies, fences, mixed orders) the hand-written library does
   not cover. *)
let test_graph_golden_synth_sample () =
  let battery = Wmm_synth.Synth.generate ~max_edges:4 Arch.Armv8 in
  (* ~200 tests spread evenly across the deterministic size-4 battery
     (the reference oracle prices larger synthesized programs out of a
     test that runs it five times per program). *)
  let stride = max 1 (List.length battery / 200) in
  let sample = List.filteri (fun i _ -> i mod stride = 0) battery in
  List.iter
    (fun (g : Wmm_synth.Synth.generated) ->
      let p = g.Wmm_synth.Synth.g_test.Test.program in
      List.iter
        (fun model ->
          let graph = Enumerate.allowed_outcomes model p in
          let slow = Reference.allowed_outcomes model p in
          if not (outcomes_equal graph slow) then
            Alcotest.failf "synth %s under %s: graph %d outcomes, reference %d"
              p.Program.name
              (Axiomatic.model_name model)
              (List.length graph) (List.length slow))
        Axiomatic.all_models)
    sample

(* --- symmetry quotient: graph searches 1/N! of the executions ----- *)

(* Executions the reference enumerator finds consistent: what a
   search without symmetry reduction reaches. *)
let reference_consistent model p =
  List.length (consistent_under model (Reference.candidate_executions p))

let test_symmetry_quotient () =
  (* Identical tier: three byte-identical writers - one canonical
     coherence order stands for all 3! = 6. *)
  let p =
    Program.make ~name:"sym3" ~location_names:[| "x" |]
      [ [| st 0 1 |]; [| st 0 1 |]; [| st 0 1 |] ]
  in
  let go, gs = Enumerate.allowed_outcomes_stats Axiomatic.Sc p in
  Alcotest.(check bool) "identical-tier outcomes agree" true
    (outcomes_equal (Reference.allowed_outcomes Axiomatic.Sc p) go);
  Alcotest.(check int) "graph searches 1/3! of the executions"
    (reference_consistent Axiomatic.Sc p)
    (6 * gs.Enumerate.consistent);
  (* Renamed tier: private immediates - same 1/3! quotient, outcomes
     reconstructed through the value substitutions. *)
  let q =
    Program.make ~name:"ren3" ~location_names:[| "x" |]
      [ [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |] ]
  in
  let ho, hs = Enumerate.allowed_outcomes_stats Axiomatic.Sc q in
  Alcotest.(check bool) "renamed-tier outcomes agree" true
    (outcomes_equal (Reference.allowed_outcomes Axiomatic.Sc q) ho);
  Alcotest.(check int) "renamed tier also quotients by 3!"
    (reference_consistent Axiomatic.Sc q)
    (6 * hs.Enumerate.consistent)

let test_graph_revisits_exercised () =
  (* Load-buffering shapes force rf promises to writes not yet in the
     graph; the library must exercise the revisit path. *)
  let total =
    List.fold_left
      (fun n (t : Test.t) ->
        let _, s =
          Enumerate.allowed_outcomes_stats Axiomatic.Arm t.Test.program
        in
        n + s.Enumerate.revisits)
      0 Library.all
  in
  Alcotest.(check bool) "revisit path exercised" true (total > 0)

(* --- pruning invariants ------------------------------------------ *)

(* On complete candidates the prune screen plus the residual axioms
   must reproduce the full consistency verdict - the correspondence
   [residual_consistent] relies on. *)
let test_prune_residual_invariant () =
  let progs =
    List.filter_map Library.by_name [ "SB"; "MP+dmb+addr"; "IRIW+syncs"; "2+2W"; "LB" ]
    |> List.map (fun t -> t.Test.program)
  in
  List.iter
    (fun p ->
      List.iter
        (fun model ->
          List.iter
            (fun ((x : Execution.t), _) ->
              let st = Axiomatic.prepare model x in
              let rf = x.Execution.rf and co = x.Execution.co in
              let full = Axiomatic.consistent_static st ~rf ~co in
              let via_prune =
                Axiomatic.prune_viable st ~rf ~co
                && Axiomatic.residual_consistent st ~rf ~co
              in
              if full <> via_prune then
                Alcotest.failf "%s/%s: consistent=%b but prune+residual=%b" p.Program.name
                  (Axiomatic.model_name model) full via_prune)
            (Reference.candidate_executions p))
        Axiomatic.all_models)
    progs

let test_stats_sanity () =
  let outs, stats = Enumerate.allowed_outcomes_stats Axiomatic.Sc co_storm in
  Alcotest.(check bool) "search pruned subtrees" true (stats.Enumerate.pruned > 0);
  Alcotest.(check bool) "generated bounds consistent" true
    (stats.Enumerate.consistent <= stats.Enumerate.generated);
  Alcotest.(check bool) "outcomes dedup consistent candidates" true
    (List.length outs <= stats.Enumerate.consistent);
  Alcotest.(check int) "every leaf consistent" stats.Enumerate.generated
    stats.Enumerate.consistent

let test_global_stats_accumulate () =
  Enumerate.reset_global_stats ();
  let zero = Enumerate.global_stats () in
  Alcotest.(check int) "reset clears" 0 zero.Enumerate.generated;
  ignore (Enumerate.allowed_outcomes Axiomatic.Tso iriw3);
  ignore (Enumerate.allowed_outcomes Axiomatic.Sc co_storm);
  let s = Enumerate.global_stats () in
  Alcotest.(check bool) "accumulates generated" true (s.Enumerate.generated > 0);
  Alcotest.(check bool) "accumulates consistent" true (s.Enumerate.consistent > 0);
  Alcotest.(check bool) "accumulates wall clock" true (s.Enumerate.wall_s > 0.)

let test_exists_outcome_agreement () =
  List.iter
    (fun name ->
      let p = (Option.get (Library.by_name name)).Test.program in
      List.iter
        (fun model ->
          let outs = Enumerate.allowed_outcomes model p in
          List.iter
            (fun target ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s witness found" name (Axiomatic.model_name model))
                true
                (Enumerate.exists_outcome model p (fun o ->
                     Enumerate.compare_outcome o target = 0)))
            outs;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s impossible outcome absent" name
               (Axiomatic.model_name model))
            false
            (Enumerate.exists_outcome model p (fun o ->
                 List.exists (fun (_, v) -> v = 99) o.Enumerate.memory)))
        Axiomatic.all_models)
    [ "SB"; "MP"; "LB"; "IRIW" ]

(* The same agreement where a canonical outcome stands for an orbit:
   [exists_outcome] must try every permutation's image.  IRIW+3w's
   2k+ outcomes per model are sampled at a fixed stride. *)
let test_exists_outcome_symmetric () =
  List.iter
    (fun (p, perms, samples) ->
      Alcotest.(check int)
        (Printf.sprintf "%s symmetry group size" p.Program.name)
        perms
        (Symmetry.perm_count (Symmetry.detect p));
      List.iter
        (fun model ->
          let outs = reference_outcomes model p in
          let targets =
            match samples with
            | None -> outs
            | Some k ->
                let stride = max 1 (List.length outs / k) in
                List.filteri (fun i _ -> i mod stride = 0) outs
          in
          List.iter
            (fun target ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s witness found" p.Program.name
                   (Axiomatic.model_name model))
                true
                (Enumerate.exists_outcome model p (fun o ->
                     Enumerate.compare_outcome o target = 0)))
            targets;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s impossible outcome absent" p.Program.name
               (Axiomatic.model_name model))
            false
            (Enumerate.exists_outcome model p (fun o ->
                 List.exists (fun (_, v) -> v = 99) o.Enumerate.memory)))
        Axiomatic.all_models)
    [ (co_storm, 6, None); (ren3_reader, 6, None); (iriw3_sym, 36, Some 20) ]

let suite =
  [
    Alcotest.test_case "permutations with duplicates" `Quick test_permutations_duplicates;
    Alcotest.test_case "golden library SC" `Quick (test_golden_library Axiomatic.Sc);
    Alcotest.test_case "golden library TSO" `Quick (test_golden_library Axiomatic.Tso);
    Alcotest.test_case "golden library ARMv8" `Quick (test_golden_library Axiomatic.Arm);
    Alcotest.test_case "golden library POWER" `Quick (test_golden_library Axiomatic.Power);
    Alcotest.test_case "golden synthetic worst cases" `Slow test_golden_synthetic;
    Alcotest.test_case "graph golden library SC" `Quick (test_graph_golden_library Axiomatic.Sc);
    Alcotest.test_case "graph golden library TSO" `Quick (test_graph_golden_library Axiomatic.Tso);
    Alcotest.test_case "graph golden library ARMv8" `Quick (test_graph_golden_library Axiomatic.Arm);
    Alcotest.test_case "graph golden library POWER" `Quick (test_graph_golden_library Axiomatic.Power);
    Alcotest.test_case "graph golden library RC11" `Quick (test_graph_golden_library Axiomatic.Rc11);
    Alcotest.test_case "graph golden synthetic worst cases" `Slow test_graph_golden_synthetic;
    Alcotest.test_case "graph golden synth sample" `Slow test_graph_golden_synth_sample;
    Alcotest.test_case "symmetry quotient 1/N!" `Quick test_symmetry_quotient;
    Alcotest.test_case "graph revisit path exercised" `Quick test_graph_revisits_exercised;
    Alcotest.test_case "prune+residual = consistent" `Quick test_prune_residual_invariant;
    Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
    Alcotest.test_case "global stats accumulate" `Quick test_global_stats_accumulate;
    Alcotest.test_case "exists_outcome agreement" `Quick test_exists_outcome_agreement;
    Alcotest.test_case "exists_outcome under symmetry" `Slow test_exists_outcome_symmetric;
  ]
