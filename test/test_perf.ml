open Wmm_isa
open Wmm_machine

let config ?(cores = 2) arch = Perf.config ~seed:9 ~cores arch

let run1 arch stream = Perf.run (config ~cores:1 arch) [| Uop.pack_list stream |]

let test_determinism () =
  let stream = [| Array.init 100 (fun i -> Uop.pack (if i mod 3 = 0 then Uop.Store i else Uop.Load i)) |] in
  let a = Perf.run (config Arch.Armv8) stream in
  let b = Perf.run (config Arch.Armv8) stream in
  Alcotest.(check int) "same cycles" a.Perf.wall_cycles b.Perf.wall_cycles

let test_busy_additive () =
  let a = run1 Arch.Armv8 [ Uop.Busy 100 ] in
  let b = run1 Arch.Armv8 [ Uop.Busy 100; Uop.Busy 50 ] in
  Alcotest.(check int) "busy adds" 150 b.Perf.wall_cycles;
  Alcotest.(check int) "single" 100 a.Perf.wall_cycles

let test_monotone_in_work () =
  let mk n =
    Array.init n (fun i ->
        Uop.pack (if i mod 4 = 0 then Uop.Store (i mod 32) else Uop.Load (i mod 64)))
  in
  let small = Perf.run (config Arch.Armv8) [| mk 100 |] in
  let large = Perf.run (config Arch.Armv8) [| mk 400 |] in
  Alcotest.(check bool) "more work, more cycles" true
    (large.Perf.wall_cycles > small.Perf.wall_cycles)

let test_fence_full_drains () =
  (* A full fence after stores must wait for their drains. *)
  let stores = List.init 6 (fun i -> Uop.Store i) in
  let without = run1 Arch.Armv8 (stores @ [ Uop.Busy 1 ]) in
  let with_fence = run1 Arch.Armv8 (stores @ [ Uop.Fence_full; Uop.Busy 1 ]) in
  Alcotest.(check bool) "fence waits for drains" true
    (with_fence.Perf.wall_cycles > without.Perf.wall_cycles);
  Alcotest.(check bool) "stall accounted" true (with_fence.Perf.fence_stall_cycles > 0)

let test_fence_costs_ordered () =
  (* In store-laden context: ishst marker < ish drain. *)
  let body fence = List.concat (List.init 10 (fun i -> [ Uop.Store i; fence; Uop.Busy 20 ])) in
  let st = run1 Arch.Armv8 (body Uop.Fence_store) in
  let full = run1 Arch.Armv8 (body Uop.Fence_full) in
  Alcotest.(check bool) "ishst cheaper than ish after stores" true
    (st.Perf.wall_cycles < full.Perf.wall_cycles)

let test_power_sync_vs_lwsync_micro () =
  (* The paper's microbenchmark: sync ~18.9 ns, lwsync ~6.1 ns, about
     a threefold difference. *)
  let timing = Timing.power7 in
  let sync = Perf.sequence_cost_ns timing [ Uop.Fence_full ] in
  let lwsync = Perf.sequence_cost_ns timing [ Uop.Fence_lw ] in
  Alcotest.(check bool) "sync near 18.9" true (abs_float (sync -. 18.9) < 1.5);
  Alcotest.(check bool) "lwsync near 6.1" true (abs_float (lwsync -. 6.1) < 1.0);
  Alcotest.(check bool) "roughly threefold" true (sync /. lwsync > 2.5 && sync /. lwsync < 3.6)

let test_arm_dmb_variants_micro_indistinct () =
  (* The paper could not separate the dmb variants by microbenchmark
     on ARMv8. *)
  let timing = Timing.armv8 in
  let ish = Perf.sequence_cost_ns timing [ Uop.Fence_full ] in
  let ishld = Perf.sequence_cost_ns timing [ Uop.Fence_load ] in
  let ishst = Perf.sequence_cost_ns timing [ Uop.Fence_store ] in
  Alcotest.(check bool) "variants within ~1ns in vitro" true
    (abs_float (ish -. ishld) < 1.2 && abs_float (ish -. ishst) < 1.2)

let test_store_forwarding () =
  let r = run1 Arch.Armv8 [ Uop.Store 5; Uop.Load 5 ] in
  Alcotest.(check int) "load forwarded from buffer" 1 r.Perf.forwarded_loads

let test_cache_locality () =
  (* Repeated loads of one location hit after the first miss. *)
  let r = run1 Arch.Armv8 (List.init 50 (fun _ -> Uop.Load 3)) in
  Alcotest.(check int) "one miss" 1 r.Perf.l1_misses;
  Alcotest.(check int) "rest hit" 49 r.Perf.l1_hits

let test_bus_contention () =
  (* Cores fighting over one line generate transactions and wait. *)
  let stream = Array.init 200 (fun i -> Uop.pack (if i mod 2 = 0 then Uop.Store 0 else Uop.Load 0)) in
  let shared = Perf.run (Perf.config ~seed:3 ~cores:4 Arch.Armv8) (Array.make 4 stream) in
  Alcotest.(check bool) "transactions happened" true (shared.Perf.bus_transactions > 100);
  Alcotest.(check bool) "bus contention visible" true (shared.Perf.bus_wait_cycles > 0)

let test_release_stalls_when_buffer_deep () =
  (* Use an aggressive release threshold so the stall is clearly
     attributable to the release semantics. *)
  let timing = { Timing.armv8 with Timing.release_drain_threshold = 2 } in
  let stores = List.init 10 (fun i -> Uop.Store i) in
  let stream = Uop.pack_list (stores @ [ Uop.Store_release 99 ]) in
  let r = Perf.run { Perf.timing; cores = 1; seed = 9 } [| stream |] in
  Alcotest.(check bool) "release waited for drains" true (r.Perf.release_stall_cycles > 0)

let test_isb_expensive () =
  let isb = run1 Arch.Armv8 [ Uop.Fence_pipeline ] in
  let ld = run1 Arch.Armv8 [ Uop.Fence_load ] in
  Alcotest.(check bool) "isb much heavier" true (isb.Perf.wall_cycles > 4 * ld.Perf.wall_cycles)

let test_spin_overlap_adjacent () =
  (* Two adjacent injected loops cost much less than twice one. *)
  let one = run1 Arch.Armv8 [ Uop.Busy 50; Uop.Spin 64; Uop.Busy 50 ] in
  let two = run1 Arch.Armv8 [ Uop.Busy 50; Uop.Spin 64; Uop.Spin 64; Uop.Busy 50 ] in
  let single_cost = one.Perf.wall_cycles - 100 in
  let double_cost = two.Perf.wall_cycles - 100 in
  Alcotest.(check bool) "adjacent spins overlap" true
    (double_cost < single_cost + (single_cost / 2))

let test_nops_cheap_but_nonzero () =
  let base = run1 Arch.Armv8 [ Uop.Busy 10 ] in
  let padded = run1 Arch.Armv8 [ Uop.Busy 10; Uop.Nops 3 ] in
  let delta = padded.Perf.wall_cycles - base.Perf.wall_cycles in
  Alcotest.(check bool) "nops cost a few cycles" true (delta >= 2 && delta <= 8)

let test_rejects_too_many_streams () =
  Alcotest.check_raises "too many streams"
    (Invalid_argument "Perf.run: more streams than cores") (fun () ->
      ignore (Perf.run (config ~cores:1 Arch.Armv8) [| [||]; [||] |]))

let test_spin_timing_floor () =
  (* Fig. 4 shape: standalone time flat at small N, linear at large N. *)
  let t = Timing.armv8 in
  let t1 = Timing.spin_cycles t ~light:false 1 in
  let t2 = Timing.spin_cycles t ~light:false 2 in
  let t512 = Timing.spin_cycles t ~light:false 512 in
  let t1024 = Timing.spin_cycles t ~light:false 1024 in
  Alcotest.(check int) "floor at small N" t1 t2;
  let ratio = float_of_int t1024 /. float_of_int t512 in
  Alcotest.(check bool) "linear at large N" true (ratio > 1.9 && ratio < 2.1)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "busy additive" `Quick test_busy_additive;
    Alcotest.test_case "monotone in work" `Quick test_monotone_in_work;
    Alcotest.test_case "full fence drains" `Quick test_fence_full_drains;
    Alcotest.test_case "fence cost ordering" `Quick test_fence_costs_ordered;
    Alcotest.test_case "sync vs lwsync micro" `Quick test_power_sync_vs_lwsync_micro;
    Alcotest.test_case "ARM dmb variants indistinct in vitro" `Quick
      test_arm_dmb_variants_micro_indistinct;
    Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
    Alcotest.test_case "cache locality" `Quick test_cache_locality;
    Alcotest.test_case "bus contention" `Quick test_bus_contention;
    Alcotest.test_case "release stalls on deep buffer" `Quick
      test_release_stalls_when_buffer_deep;
    Alcotest.test_case "isb expensive" `Quick test_isb_expensive;
    Alcotest.test_case "adjacent spin overlap" `Quick test_spin_overlap_adjacent;
    Alcotest.test_case "nop padding cost" `Quick test_nops_cheap_but_nonzero;
    Alcotest.test_case "stream count check" `Quick test_rejects_too_many_streams;
    Alcotest.test_case "spin timing floor (Fig 4)" `Quick test_spin_timing_floor;
  ]
