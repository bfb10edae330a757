open Wmm_isa
open Wmm_machine

let make ?(cores = 4) () = Memsys.create (Timing.for_arch Arch.Armv8) ~cores

(* A load's completion time, and whether it hit: it did when the core's
   miss count did not move. *)
let load m ~core ~loc ~now =
  let misses = Memsys.misses m ~core in
  let ready_at = Memsys.load m ~core ~loc ~now in
  (ready_at, Memsys.misses m ~core = misses)

let test_first_load_misses_then_hits () =
  let m = make () in
  let first, first_hit = load m ~core:0 ~loc:8 ~now:0 in
  Alcotest.(check bool) "first is a miss" false first_hit;
  let second, second_hit = load m ~core:0 ~loc:8 ~now:100 in
  Alcotest.(check bool) "second hits" true second_hit;
  Alcotest.(check bool) "hit is fast" true (second - 100 < first);
  Alcotest.(check (pair int int)) "loads and misses counted" (2, 1)
    (Memsys.loads m ~core:0, Memsys.misses m ~core:0)

let test_same_line_shares_hit () =
  (* Locations 8..15 are one line (line_shift = 3). *)
  let m = make () in
  ignore (Memsys.load m ~core:0 ~loc:8 ~now:0);
  let _, neighbour_hit = load m ~core:0 ~loc:15 ~now:50 in
  Alcotest.(check bool) "same line hits" true neighbour_hit;
  let _, other_line_hit = load m ~core:0 ~loc:16 ~now:60 in
  Alcotest.(check bool) "next line misses" false other_line_hit

let test_store_invalidates_sharers () =
  let m = make () in
  ignore (Memsys.load m ~core:0 ~loc:8 ~now:0);
  ignore (Memsys.load m ~core:1 ~loc:8 ~now:10);
  (* Core 2 drains a store: both sharers must lose the line. *)
  ignore (Memsys.store_drain m ~core:2 ~loc:8 ~now:20);
  let _, hit0 = load m ~core:0 ~loc:8 ~now:200 in
  let _, hit1 = load m ~core:1 ~loc:8 ~now:400 in
  Alcotest.(check bool) "core 0 invalidated" false hit0;
  Alcotest.(check bool) "core 1 invalidated" false hit1

let test_exclusive_drain_is_cheap () =
  let m = make () in
  let t1 = Memsys.store_drain m ~core:0 ~loc:8 ~now:0 in
  (* Second drain to the now-exclusive line is local. *)
  let t2 = Memsys.store_drain m ~core:0 ~loc:9 ~now:t1 in
  Alcotest.(check bool) "upgrade slower than owned" true (t1 - 0 > t2 - t1)

let test_load_after_remote_dirty () =
  let m = make () in
  ignore (Memsys.store_drain m ~core:0 ~loc:8 ~now:0);
  (* Remote dirty line: cache-to-cache transfer, then both shared. *)
  let _, hit = load m ~core:1 ~loc:8 ~now:100 in
  Alcotest.(check bool) "miss with transfer" false hit;
  let _, again = load m ~core:1 ~loc:8 ~now:500 in
  Alcotest.(check bool) "then cached" true again

let test_transactions_counted () =
  let m = make () in
  ignore (Memsys.load m ~core:0 ~loc:0 ~now:0);
  ignore (Memsys.load m ~core:1 ~loc:0 ~now:1);
  ignore (Memsys.store_drain m ~core:2 ~loc:0 ~now:2);
  Alcotest.(check int) "three transactions" 3 (Memsys.bus_transactions m)

let test_bus_queue_bounded () =
  (* Many simultaneous requests: waits stay bounded by the per-core
     queue cap (occupancy x cores). *)
  let timing = Timing.for_arch Arch.Armv8 in
  let m = Memsys.create timing ~cores:4 in
  let cap = timing.Timing.bus_occupancy_cycles * 4 in
  for i = 0 to 63 do
    let ready_at = Memsys.load m ~core:(i mod 4) ~loc:(i * 8) ~now:0 in
    let wait =
      ready_at
      - (timing.Timing.memory_cycles + timing.Timing.l2_hit_cycles + cap)
    in
    Alcotest.(check bool) "wait bounded" true (wait <= cap + timing.Timing.memory_cycles)
  done

let test_reset () =
  let m = make () in
  ignore (Memsys.load m ~core:0 ~loc:8 ~now:0);
  Memsys.reset m;
  Alcotest.(check int) "counters cleared" 0 (Memsys.bus_transactions m);
  Alcotest.(check (pair int int)) "load counters cleared" (0, 0)
    (Memsys.loads m ~core:0, Memsys.misses m ~core:0);
  let _, hit = load m ~core:0 ~loc:8 ~now:0 in
  Alcotest.(check bool) "cache cleared" false hit

let prop_ready_at_after_now =
  QCheck.Test.make ~name:"completion never precedes request" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 0 4096) (int_range 0 100000))
    (fun (core, loc, now) ->
      let m = make () in
      Memsys.load m ~core ~loc ~now >= now
      && Memsys.store_drain m ~core ~loc ~now >= now)

let prop_hit_faster_than_miss =
  QCheck.Test.make ~name:"hits are never slower than misses" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 4096))
    (fun (core, loc) ->
      let m = make () in
      let miss = Memsys.load m ~core ~loc ~now:0 in
      let hit = Memsys.load m ~core ~loc ~now:miss in
      hit - miss <= miss - 0)

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_first_load_misses_then_hits;
    Alcotest.test_case "line granularity" `Quick test_same_line_shares_hit;
    Alcotest.test_case "store invalidates sharers" `Quick test_store_invalidates_sharers;
    Alcotest.test_case "exclusive drain cheap" `Quick test_exclusive_drain_is_cheap;
    Alcotest.test_case "remote dirty transfer" `Quick test_load_after_remote_dirty;
    Alcotest.test_case "transactions counted" `Quick test_transactions_counted;
    Alcotest.test_case "bus queue bounded" `Quick test_bus_queue_bounded;
    Alcotest.test_case "reset" `Quick test_reset;
    QCheck_alcotest.to_alcotest prop_ready_at_after_now;
    QCheck_alcotest.to_alcotest prop_hit_faster_than_miss;
  ]
