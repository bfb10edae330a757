(* Golden values for the simulator paths the fig5 golden report never
   runs: JVM acquire/release mode, POWER barriers, every kernel rbd
   strategy with an injected cost function, a response-mode profile,
   the in-vitro fence microbenchmarks and a hand-mixed stream of every
   uop kind.  Each pins the generated streams (by digest) and every
   field of [Perf.stats], so a faster generator or simulator must
   reproduce the same bits.  The allocation budget keeps the hot path
   allocation-free and the streams one word per uop, which is what lets
   two engine jobs scale. *)

open Wmm_util
open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload
module Exp_common = Wmm_experiments.Exp_common

let stream_digest streams =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  Array.iter
    (fun s ->
      Array.iter (fun w -> Format.fprintf fmt "%a;" Uop.pp (Uop.unpack w)) s;
      Format.pp_print_char fmt '\n')
    streams;
  Format.pp_print_flush fmt ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let stats_line (s : Perf.stats) =
  Printf.sprintf
    "wall=%d cores=%s bus=%d wait=%d fence=%d release=%d fwd=%d hits=%d misses=%d uops=%d"
    s.Perf.wall_cycles
    (String.concat "," (Array.to_list (Array.map string_of_int s.Perf.per_core_cycles)))
    s.Perf.bus_transactions s.Perf.bus_wait_cycles s.Perf.fence_stall_cycles
    s.Perf.release_stall_cycles s.Perf.forwarded_loads s.Perf.l1_hits s.Perf.l1_misses
    s.Perf.uops_executed

let jvm ?(mode = Jvm.Barriers) ?(lock_patch = false) arch =
  Generate.Jvm_platform { (Jvm.default arch) with Jvm.mode; lock_patch }

let kernel rbd = Exp_common.kernel_platform ~rbd ~inject_all:[ Uop.Spin 16 ] Arch.Armv8

(* name, profile, platform, units, seed, stream digest, stats *)
let cases =
  [
    ( "arm acqrel lock_patch", Dacapo.xalan, jvm ~mode:Jvm.Acqrel ~lock_patch:true Arch.Armv8, 30, 3,
      "2a78ace7f6204e050aeed271c26f55f9",
      "wall=190646 cores=186763,190646,184456,185956,187510,188996,188285,183934 bus=12443 \
       wait=88214 fence=0 release=764 fwd=156 hits=3915 misses=6331 uops=23719" );
    ( "arm acqrel", Dacapo.lusearch, jvm ~mode:Jvm.Acqrel Arch.Armv8, 30, 3,
      "56494942bd8843466bac944fcd0a544d",
      "wall=255100 cores=251483,250463,241753,252896,237766,248392,247917,255100 bus=10138 \
       wait=27301 fence=35989 release=0 fwd=44 hits=5123 misses=7641 uops=17390" );
    ( "power barriers", Dacapo.spark, jvm Arch.Power7, 30, 4,
      "94eeee64705c3f84a20c1fc4797c5c6d",
      "wall=208060 cores=208005,204327,207667,206978,203943,208060,207890,203764 bus=13401 \
       wait=159143 fence=182826 release=0 fwd=32 hits=1545 misses=6740 uops=24878" );
    ( "power barriers lock_patch", Dacapo.xalan, jvm ~lock_patch:true Arch.Power7, 30, 4,
      "30b7a0a537875e9472f5d15994f8f50e",
      "wall=234087 cores=232242,229770,229391,231766,232794,227198,230418,234087 bus=13481 \
       wait=125074 fence=162440 release=0 fwd=62 hits=3660 misses=6683 uops=27982" );
    ( "kernel base case", Kernelbench.netperf_udp, kernel Kernel.Rbd_none, 40, 5,
      "fe95f1f496ac59906359c3384e484aaf",
      "wall=46061 cores=44015,46061 bus=773 wait=287 fence=9198 release=0 fwd=14 hits=695 \
       misses=302 uops=3897" );
    ( "kernel ctrl", Kernelbench.netperf_udp, kernel Kernel.Rbd_ctrl, 40, 5,
      "0d0c05f9abb10a69e9830625098cccf5",
      "wall=47327 cores=45290,47327 bus=775 wait=294 fence=9175 release=0 fwd=14 hits=696 \
       misses=301 uops=4147" );
    ( "kernel ctrl+isb", Kernelbench.netperf_udp, kernel Kernel.Rbd_ctrl_isb, 40, 5,
      "531f070eae9c81c87f8be461293de654",
      "wall=53624 cores=51980,53624 bus=773 wait=341 fence=9252 release=0 fwd=13 hits=700 \
       misses=298 uops=4397" );
    ( "kernel dmb ishld", Kernelbench.netperf_udp, kernel Kernel.Rbd_dmb_ishld, 40, 5,
      "2d6ac5cc7857b5f2833edd7178a0bc3f",
      "wall=47114 cores=45109,47114 bus=769 wait=316 fence=9160 release=0 fwd=13 hits=699 \
       misses=299 uops=4147" );
    ( "kernel dmb ish", Kernelbench.netperf_udp, kernel Kernel.Rbd_dmb_ish, 40, 5,
      "27f6226603f2ecb800dc889bae1de28f",
      "wall=47360 cores=45415,47360 bus=768 wait=302 fence=9278 release=0 fwd=13 hits=701 \
       misses=297 uops=4147" );
    ( "kernel la/sr", Kernelbench.netperf_udp, kernel Kernel.Rbd_la_sr, 40, 5,
      "57af9493fc308da990db476e44aa4d8f",
      "wall=48350 cores=46309,48350 bus=770 wait=303 fence=9214 release=0 fwd=14 hits=698 \
       misses=299 uops=4412" );
  ]

let golden_case (name, p, platform, units, seed, digest, stats) =
  Alcotest.test_case name `Quick (fun () ->
      let streams = Generate.streams ~units_override:units p platform ~seed in
      Alcotest.(check string) "stream digest" digest (stream_digest streams);
      let config =
        Perf.config ~seed ~cores:(Array.length streams) (Generate.platform_arch platform)
      in
      Alcotest.(check string) "stats" stats (stats_line (Perf.run config streams)))

let test_response_mode () =
  let platform =
    Exp_common.kernel_platform ~rbd:Kernel.Rbd_ctrl ~inject_all:[ Uop.Nops 2 ] Arch.Armv8
  in
  let p = Kernelbench.osm_stack in
  Alcotest.(check string) "one request's streams" "1a4f09e21e7d86b074298e93f4b603f9"
    (stream_digest (Generate.streams ~units_override:10 p platform ~seed:3));
  let r = Bench_runner.run p platform ~seed:3 in
  let hex x = Printf.sprintf "%h" x in
  Alcotest.(check (list string)) "throughput, wall, response mean and max"
    [ "0x1.90e5ebc76ce68p-2"; "0x1.2b53f210259bdp+21"; "0x1.8f1a9815877a7p+16"; "0x1.08be2813b9a71p+17" ]
    (List.map hex
       [
         r.Bench_runner.throughput;
         r.Bench_runner.wall_ns;
         r.Bench_runner.response_mean_ns;
         r.Bench_runner.response_max_ns;
       ]);
  Alcotest.(check string) "last run's stats"
    "wall=23447 cores=22139,23447,18832,20807 bus=291 wait=114 fence=640 release=0 fwd=0 \
     hits=11 misses=192 uops=357"
    (stats_line r.Bench_runner.stats)

let test_fence_microbenchmarks () =
  let fences = [ Uop.Fence_full; Uop.Fence_store; Uop.Fence_load; Uop.Fence_lw; Uop.Fence_pipeline ] in
  let costs timing =
    List.map (fun u -> Printf.sprintf "%h" (Perf.sequence_cost_ns timing [ u ])) fences
  in
  Alcotest.(check (list string)) "armv8"
    [ "0x1.2555555555556p+2"; "0x1.ep+1"; "0x1.ep+1"; "0x1.2555555555556p+2"; "0x1.5aaaaaaaaaaabp+4" ]
    (costs Timing.armv8);
  Alcotest.(check (list string)) "power7"
    [
      "0x1.2eb3e45306eb3p+4";
      "0x1.14c1bacf914c1p+1";
      "0x1.59f22983759f2p+1";
      "0x1.8dd67c8a60dd5p+2";
      "0x1.03759f2298375p+4";
    ]
    (costs Timing.power7)

(* Three cores over 24 locations, every uop kind: heavy forwarding,
   same-location acquires and release stalls against a full buffer. *)
let mixed_streams () =
  let rng = Rng.create 77 in
  Array.init 3 (fun _ ->
      Array.init 3000 (fun _ ->
          let loc = Rng.int rng 24 in
          Uop.pack
          @@
          match Rng.int rng 16 with
          | 0 -> Uop.Busy (Rng.int rng 20)
          | 1 | 2 -> Uop.Load loc
          | 3 | 4 -> Uop.Store loc
          | 5 -> Uop.Load_acquire loc
          | 6 -> Uop.Store_release loc
          | 7 -> Uop.Fence_full
          | 8 -> Uop.Fence_store
          | 9 -> Uop.Fence_load
          | 10 -> Uop.Fence_lw
          | 11 -> Uop.Fence_pipeline
          | 12 -> Uop.Branch
          | 13 ->
              if Rng.bool rng then Uop.Spin (Rng.int rng 40) else Uop.Spin_light (Rng.int rng 40)
          | 14 -> Uop.Nops (Rng.int rng 6)
          | _ ->
              if Rng.bool rng then Uop.Counter_shared (loc mod 4)
              else Uop.Counter_private (loc mod 4)))

let test_mixed_stream () =
  let run arch = stats_line (Perf.run (Perf.config ~seed:21 ~cores:3 arch) (mixed_streams ())) in
  Alcotest.(check string) "armv8"
    "wall=50919 cores=50566,49019,50919 bus=2527 wait=3507 fence=8382 release=0 fwd=120 \
     hits=1020 misses=1019 uops=9000"
    (run Arch.Armv8);
  Alcotest.(check string) "power7"
    "wall=68739 cores=68226,68642,68739 bus=2500 wait=7080 fence=13283 release=1715 fwd=113 \
     hits=1037 misses=1009 uops=9000"
    (run Arch.Power7)

(* Minor-heap words per uop for generation and for simulation of fig5's
   base configuration, and the streams' footprint.  Packed uops are
   unboxed, so what generation still allocates is a few boxed floats
   per work unit, and simulation allocates only per run; boxed uops
   cost about 2 and 1 words per uop here, and the list-based paths
   before them about 50 in each. *)
let test_allocation_budget () =
  let p = Dacapo.spark and platform = Exp_common.jvm_nop_base Arch.Armv8 in
  let generate () = Generate.streams ~units_override:100 p platform ~seed:1 in
  ignore (generate ());
  let w0 = Gc.minor_words () in
  let streams = generate () in
  let w1 = Gc.minor_words () in
  let uops = Array.fold_left (fun n s -> n + Array.length s) 0 streams in
  let config = Perf.config ~seed:1 ~cores:(Array.length streams) Arch.Armv8 in
  let w2 = Gc.minor_words () in
  let stats = Perf.run config streams in
  let w3 = Gc.minor_words () in
  let per_uop words n = words /. float_of_int n in
  let gen = per_uop (w1 -. w0) uops and sim = per_uop (w3 -. w2) stats.Perf.uops_executed in
  Alcotest.(check bool) (Printf.sprintf "Generate.streams: %.2f words/uop <= 1" gen) true
    (gen <= 1.);
  Alcotest.(check bool) (Printf.sprintf "Perf.run: %.3f words/uop <= 0.1" sim) true (sim <= 0.1);
  (* One word per uop, a header per stream, and the outer array. *)
  let footprint = Obj.reachable_words (Obj.repr streams) in
  let n = Array.length streams in
  let bound = uops + n + (n + 1) in
  Alcotest.(check bool) (Printf.sprintf "streams: %d words <= %d" footprint bound) true
    (footprint <= bound)

let suite =
  List.map golden_case cases
  @ [
      Alcotest.test_case "response mode (osm_stack)" `Quick test_response_mode;
      Alcotest.test_case "fence microbenchmarks" `Quick test_fence_microbenchmarks;
      Alcotest.test_case "mixed uop stream" `Quick test_mixed_stream;
      Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
    ]
