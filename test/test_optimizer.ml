open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_core

(* Optimizer -------------------------------------------------------- *)

let stream = Uop.pack_list

let test_strength_lattice () =
  Alcotest.(check bool) "full top" true (Optimizer.strength Uop.Kind.Fence_full = Some 3);
  Alcotest.(check bool) "non-fence" true (Optimizer.strength Uop.Kind.Load = None);
  Alcotest.(check bool) "full subsumes lw" true
    (Optimizer.subsumes Uop.Kind.Fence_full Uop.Kind.Fence_lw);
  Alcotest.(check bool) "lw subsumes ld" true
    (Optimizer.subsumes Uop.Kind.Fence_lw Uop.Kind.Fence_load);
  Alcotest.(check bool) "ld does not subsume st" false
    (Optimizer.subsumes Uop.Kind.Fence_load Uop.Kind.Fence_store);
  Alcotest.(check bool) "duplicate subsumes" true
    (Optimizer.subsumes Uop.Kind.Fence_store Uop.Kind.Fence_store)

let test_adjacent_duplicates_merge () =
  let r = Optimizer.eliminate (stream [ Uop.Fence_full; Uop.Fence_full ]) in
  Alcotest.(check int) "one eliminated" 1 r.Optimizer.eliminated;
  Alcotest.(check bool) "one remains" true (r.Optimizer.stream = stream [ Uop.Fence_full ])

let test_full_subsumes_neighbours () =
  let r =
    Optimizer.eliminate (stream [ Uop.Fence_load; Uop.Fence_full; Uop.Fence_store ])
  in
  Alcotest.(check int) "two eliminated" 2 r.Optimizer.eliminated;
  Alcotest.(check bool) "only the full fence" true
    (r.Optimizer.stream = stream [ Uop.Fence_full ])

let test_memory_access_blocks_merging () =
  let stream = stream [ Uop.Fence_full; Uop.Load 1; Uop.Fence_full ] in
  let r = Optimizer.eliminate stream in
  Alcotest.(check int) "nothing eliminated" 0 r.Optimizer.eliminated;
  Alcotest.(check bool) "stream unchanged" true (r.Optimizer.stream = stream)

let test_isb_is_a_boundary () =
  let stream = stream [ Uop.Fence_full; Uop.Fence_pipeline; Uop.Fence_full ] in
  let r = Optimizer.eliminate stream in
  Alcotest.(check int) "isb prevents merging" 0 r.Optimizer.eliminated

let test_busy_does_not_block () =
  let r = Optimizer.eliminate (stream [ Uop.Fence_store; Uop.Busy 5; Uop.Fence_store ]) in
  Alcotest.(check int) "merged across busy" 1 r.Optimizer.eliminated

let test_probe_insertion () =
  let r =
    Optimizer.eliminate ~probe:(Uop.Spin 8) (stream [ Uop.Fence_full; Uop.Fence_full ])
  in
  Alcotest.(check bool) "probe at the site" true
    (r.Optimizer.stream = stream [ Uop.Fence_full; Uop.Spin 8 ])

let test_ld_st_pair_survives () =
  let r = Optimizer.eliminate (stream [ Uop.Fence_load; Uop.Fence_store ]) in
  Alcotest.(check int) "incomparable pair kept" 0 r.Optimizer.eliminated

let test_optimised_never_slower_when_fences_removed () =
  (* Performance sanity: removing fences cannot make the simulated
     run slower on one core. *)
  let stream =
    stream
      (List.concat
         (List.init 50 (fun i -> [ Uop.Store i; Uop.Fence_store; Uop.Fence_full; Uop.Busy 10 ])))
  in
  let optimised, eliminated = Optimizer.optimise_streams [| stream |] in
  Alcotest.(check bool) "eliminated some" true (eliminated > 0);
  let config = Wmm_machine.Perf.config ~seed:3 ~cores:1 Arch.Armv8 in
  let base = Wmm_machine.Perf.run config [| stream |] in
  let opt = Wmm_machine.Perf.run config optimised in
  Alcotest.(check bool) "not slower" true
    (opt.Wmm_machine.Perf.wall_cycles <= base.Wmm_machine.Perf.wall_cycles)

let prop_idempotent =
  QCheck.Test.make ~name:"elimination idempotent" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 6))
    (fun codes ->
      let uop_of = function
        | 0 -> Uop.Fence_full
        | 1 -> Uop.Fence_load
        | 2 -> Uop.Fence_store
        | 3 -> Uop.Fence_lw
        | 4 -> Uop.Load 1
        | 5 -> Uop.Store 2
        | _ -> Uop.Busy 3
      in
      let stream = stream (List.map uop_of codes) in
      let once = (Optimizer.eliminate stream).Optimizer.stream in
      let twice = (Optimizer.eliminate once).Optimizer.stream in
      once = twice)

let prop_non_fences_preserved =
  QCheck.Test.make ~name:"non-fence uops preserved in order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 6))
    (fun codes ->
      let uop_of = function
        | 0 -> Uop.Fence_full
        | 1 -> Uop.Fence_load
        | 2 -> Uop.Fence_store
        | 3 -> Uop.Fence_lw
        | 4 -> Uop.Load 1
        | 5 -> Uop.Store 2
        | _ -> Uop.Busy 3
      in
      let stream = stream (List.map uop_of codes) in
      let non_fence s =
        List.filter (fun w -> Optimizer.strength (Uop.kind w) = None) (Array.to_list s)
      in
      non_fence (Optimizer.eliminate stream).Optimizer.stream = non_fence stream)

(* Instrumentation --------------------------------------------------- *)

let test_counter_uops () =
  Alcotest.(check bool) "shared" true
    (Instrumentation.counter_uop Instrumentation.Shared_counter ~path_index:2
    = Uop.Counter_shared 2);
  Alcotest.(check bool) "register is busy" true
    (Instrumentation.counter_uop Instrumentation.Register_counter ~path_index:0 = Uop.Busy 1)

let test_counter_is_memory () =
  Alcotest.(check bool) "counters touch memory" true
    (Uop.is_memory (Uop.Counter_shared 0) && Uop.is_memory (Uop.Counter_private 1))

let test_shared_counter_costs_more_than_register () =
  let tiny =
    Wmm_workload.Profile.make "tiny" ~threads:4 ~units_per_thread:80 ~unit_busy_cycles:600
      ~unit_loads:6 ~unit_stores:4 ~working_set:128 ~shared_locations:16 ~share_ratio:0.2
      ~jvm:{ Wmm_workload.Profile.volatile_loads = 1.; volatile_stores = 2.; cas = 0.; locks = 0.5 }
      ~noise:Wmm_workload.Profile.quiet
  in
  let shared =
    Instrumentation.measure_perturbation ~samples:3 Arch.Armv8 tiny
      Instrumentation.Shared_counter
  in
  let register =
    Instrumentation.measure_perturbation ~samples:3 Arch.Armv8 tiny
      Instrumentation.Register_counter
  in
  Alcotest.(check bool) "shared counter overhead dominates" true
    (shared.Instrumentation.overhead > register.Instrumentation.overhead);
  Alcotest.(check bool) "register counter nearly free" true
    (abs_float register.Instrumentation.overhead < 0.05)

let suite =
  [
    Alcotest.test_case "strength lattice" `Quick test_strength_lattice;
    Alcotest.test_case "duplicate merge" `Quick test_adjacent_duplicates_merge;
    Alcotest.test_case "full subsumes neighbours" `Quick test_full_subsumes_neighbours;
    Alcotest.test_case "memory access blocks" `Quick test_memory_access_blocks_merging;
    Alcotest.test_case "isb boundary" `Quick test_isb_is_a_boundary;
    Alcotest.test_case "busy does not block" `Quick test_busy_does_not_block;
    Alcotest.test_case "probe insertion" `Quick test_probe_insertion;
    Alcotest.test_case "ld/st pair survives" `Quick test_ld_st_pair_survives;
    Alcotest.test_case "optimised not slower" `Quick
      test_optimised_never_slower_when_fences_removed;
    QCheck_alcotest.to_alcotest prop_idempotent;
    QCheck_alcotest.to_alcotest prop_non_fences_preserved;
    Alcotest.test_case "counter uops" `Quick test_counter_uops;
    Alcotest.test_case "counter memory classification" `Quick test_counter_is_memory;
    Alcotest.test_case "shared counter costly" `Quick
      test_shared_counter_costs_more_than_register;
  ]
