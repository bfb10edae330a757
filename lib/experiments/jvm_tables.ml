(** The in-text JVM results of paper sections 4.2 and 4.2.1:

    - T1: nop insertion into every elemental barrier (3 instructions
      on ARM, 6 on POWER): peak drop 4.5% (h2/ARM), mean 1.9% on ARM
      and 0.7% on POWER.
    - T2: the StoreStore experiment.  ARM [dmb ishst -> dmb ish]:
      -0.7%, inferred cost +1.8 ns, with microbenchmarks unable to
      separate the instructions.  POWER [lwsync -> sync]: -12.5%,
      inferred cost +11.7 ns against microbenchmark costs of 6.1 ns
      (lwsync) and 18.9 ns (sync); mean inferred cost over the other
      benchmarks 11.8 ns, i.e. POWER's behaviour is workload
      agnostic while ARM's is not.
    - T3: memory barriers vs load-acquire/store-release on ARM
      (JDK9): xalan +2.9%, sunflow +3.0%, h2 -0.3%, spark -0.5%,
      tomcat -1.7%, others not significant.
    - T4: the lock-path DMB-elimination patch (8135187) on spark/ARM:
      +2.9% under load-acquire/store-release, -1% under barriers. *)

open Wmm_isa
open Wmm_util
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

let samples () = Exp_common.samples ()

(* Every table submits its samples into one batch, and its finalizer
   renders it; a failed sample renders as a failed cell, and the
   aggregates run over the cells that survive.  Equal samples (the
   default-platform base of T1-T4, or the spark swap that T2 reports
   twice) are one task. *)
let relative batch ?robust ~label profile ~base ~test =
  Experiment.relative_deferred batch ~samples:(samples ()) ?robust ~label profile ~base ~test

(* ------------------------------------------------------------------ *)
(* T1: nop insertion.                                                  *)
(* ------------------------------------------------------------------ *)

let nop_table ?robust batch =
  let pending =
    List.concat_map
      (fun arch ->
        let nops = Exp_common.nop_uop arch ~light:(Exp_common.light_for arch) in
        List.map
          (fun (profile : Profile.t) ->
            ( arch,
              profile,
              relative batch ?robust
                ~label:(Printf.sprintf "t1 nop %s/%s" profile.Profile.name (Arch.name arch))
                profile ~base:(Exp_common.jvm_platform arch)
                ~test:(Exp_common.jvm_platform ~inject_all:[ nops ] arch) ))
          Dacapo.all)
      Arch.all
  in
  fun () ->
    let table = Table.create [ "benchmark"; "arch"; "relative perf"; "change" ] in
    let drops =
      List.filter_map
        (fun (arch, (profile : Profile.t), finish) ->
          let rel = finish () in
          Table.add_row table
            (profile.Profile.name :: Arch.name arch :: Exp_common.relative_cells rel);
          match rel with Ok r -> Some (arch, r.Stats.gmean) | Error _ -> None)
        pending
    in
    let mean_for arch =
      Exp_common.mean_or_nan
        (List.filter_map (fun (a, v) -> if a = arch then Some v else None) drops)
    in
    let peak =
      if drops = [] then nan else List.fold_left (fun acc (_, v) -> min acc v) 1. drops
    in
    ( table,
      Printf.sprintf
        "mean drop: arm %.1f%% (paper 1.9%%), power %.1f%% (paper 0.7%%); peak drop %.1f%% (paper 4.5%%)"
        ((1. -. mean_for Arch.Armv8) *. 100.)
        ((1. -. mean_for Arch.Power7) *. 100.)
        ((1. -. peak) *. 100.) )

(* ------------------------------------------------------------------ *)
(* T2: the StoreStore swap.                                            *)
(* ------------------------------------------------------------------ *)

(* The swap on one benchmark, and its sensitivity to the StoreStore
   code path, needed to convert the swap's relative performance into a
   cost via eq. 2. *)
let swap batch ?robust arch (profile : Profile.t) =
  let light = Exp_common.light_for arch in
  let sweep =
    Experiment.sweep_deferred batch ~samples:(samples ()) ~light
      ~iteration_counts:(Exp_common.sweep_counts ())
      ?robust ~code_path:"StoreStore"
      ~base:
        (Exp_common.jvm_platform
           ~inject:[ (Barrier.Store_store, [ Exp_common.nop_uop arch ~light ]) ]
           arch)
      ~inject:(fun cf ->
        Exp_common.jvm_platform
          ~inject:[ (Barrier.Store_store, [ Wmm_costfn.Cost_function.uop cf ]) ]
          arch)
      profile
  in
  let rel =
    relative batch ?robust
      ~label:(Printf.sprintf "t2 swap %s/%s" profile.Profile.name (Arch.name arch))
      profile ~base:(Exp_common.jvm_platform arch)
      ~test:
        (Exp_common.jvm_platform ~overrides:[ (Barrier.Store_store, Uop.Fence_full) ] arch)
  in
  fun () ->
    let fit = (sweep ()).Experiment.fit in
    (fit, rel ())

let inferred_cost (fit, rel) = Result.map (Experiment.inferred_cost_ns fit) rel

let storestore_table ?robust batch =
  (* The paper also averages the inferred cost over the other
     benchmarks (excluding the unstable xalan). *)
  let others =
    List.filter
      (fun (p : Profile.t) -> p.Profile.name <> "spark" && p.Profile.name <> "xalan")
      Dacapo.all
  in
  let pending =
    List.map
      (fun arch ->
        ( arch,
          swap batch ?robust arch Dacapo.spark,
          List.map (swap batch ?robust arch) others ))
      Arch.all
  in
  fun () ->
    let buffer = Buffer.create 1024 in
    List.iter
      (fun (arch, spark, others) ->
        let timing = Timing.for_arch arch in
        let ((fit, rel) as swap) = spark () in
        let other_costs =
          List.filter_map (fun finish -> Result.to_option (inferred_cost (finish ()))) others
        in
        let micro_weak, micro_strong, weak_name, strong_name =
          match arch with
          | Arch.Armv8 ->
              ( Perf.sequence_cost_ns timing [ Uop.Fence_store ],
                Perf.sequence_cost_ns timing [ Uop.Fence_full ],
                "dmb ishst",
                "dmb ish" )
          | Arch.Power7 ->
              ( Perf.sequence_cost_ns timing [ Uop.Fence_lw ],
                Perf.sequence_cost_ns timing [ Uop.Fence_full ],
                "lwsync",
                "sync" )
        in
        Buffer.add_string buffer
          (Printf.sprintf
             "%s: %s -> %s on spark: %s (%s); sensitivity %s\n\
             \  inferred cost change: %+.1f ns (paper: %s)\n\
             \  microbenchmark: %s %.1f ns, %s %.1f ns (paper: %s)\n\
             \  mean inferred over other stable benchmarks: %+.1f ns (paper: 11.8 ns on POWER)\n"
             (Arch.name arch) weak_name strong_name
             (match rel with Ok r -> Exp_common.fmt_pct_change r | Error _ -> "failed")
             (match arch with
             | Arch.Armv8 -> "paper: -0.7%"
             | Arch.Power7 -> "paper: -12.5%")
             (Exp_common.fmt_fit fit)
             (Result.value (inferred_cost swap) ~default:nan)
             (match arch with Arch.Armv8 -> "+1.8 ns" | Arch.Power7 -> "+11.7 ns")
             weak_name micro_weak strong_name micro_strong
             (match arch with
             | Arch.Armv8 -> "indistinguishable"
             | Arch.Power7 -> "6.1 ns vs 18.9 ns")
             (Exp_common.mean_or_nan other_costs)))
      pending;
    Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* T3: barriers vs load-acquire/store-release on ARM.                  *)
(* ------------------------------------------------------------------ *)

let paper_lasr = function
  | "xalan" -> "+2.9%"
  | "sunflow" -> "+3.0%"
  | "h2" -> "-0.3%"
  | "spark" -> "-0.5%"
  | "tomcat" -> "-1.7%"
  | "lusearch" | "tradebeans" | "tradesoap" -> "n.s."
  | _ -> "?"

let lasr_table ?robust batch =
  let arch = Arch.Armv8 in
  let pending =
    List.map
      (fun (profile : Profile.t) ->
        ( profile,
          relative batch ?robust ~label:("t3 la/sr " ^ profile.Profile.name) profile
            ~base:(Exp_common.jvm_platform ~mode:Jvm.Barriers arch)
            ~test:(Exp_common.jvm_platform ~mode:Jvm.Acqrel arch) ))
      Dacapo.all
  in
  fun () ->
    let table = Table.create [ "benchmark"; "la/sr vs barriers"; "change"; "paper" ] in
    List.iter
      (fun ((profile : Profile.t), finish) ->
        Table.add_row table
          ((profile.Profile.name :: Exp_common.relative_cells (finish ()))
          @ [ paper_lasr profile.Profile.name ]))
      pending;
    table

(* ------------------------------------------------------------------ *)
(* T4: the lock-path DMB elimination patch.                            *)
(* ------------------------------------------------------------------ *)

let lock_patch_table ?robust batch =
  let arch = Arch.Armv8 in
  let pending =
    List.map
      (fun (mode, name, paper) ->
        ( name,
          paper,
          relative batch ?robust ~label:("t4 lock patch " ^ name) Dacapo.spark
            ~base:(Exp_common.jvm_platform ~mode arch)
            ~test:(Exp_common.jvm_platform ~mode ~lock_patch:true arch) ))
      [
        (Jvm.Acqrel, "load-acquire/store-release", "+2.9%");
        (Jvm.Barriers, "memory barriers", "-1.0%");
      ]
  in
  fun () ->
    let table = Table.create [ "mode"; "patched vs unpatched (spark)"; "change"; "paper" ] in
    List.iter
      (fun (name, paper, finish) ->
        Table.add_row table ((name :: Exp_common.relative_cells (finish ())) @ [ paper ]))
      pending;
    table

let report ?engine ?robust () =
  let (nop, nop_summary), storestore, lasr, lock_patch =
    Experiment.run ?engine (fun batch ->
        let nop = nop_table ?robust batch in
        let storestore = storestore_table ?robust batch in
        let lasr = lasr_table ?robust batch in
        let lock_patch = lock_patch_table ?robust batch in
        fun () -> (nop (), storestore (), lasr (), lock_patch ()))
  in
  String.concat "\n"
    [
      Exp_common.header "In-text table: nop insertion into all elemental barriers (4.2)";
      Table.render nop;
      nop_summary;
      "";
      Exp_common.header "In-text table: the StoreStore swap (4.2.1)";
      storestore;
      Exp_common.header "In-text table: barriers vs load-acquire/store-release, ARM (4.2.1)";
      Table.render lasr;
      "";
      Exp_common.header "In-text table: lock-path DMB elimination patch, spark/ARM (4.2.1)";
      Table.render lock_patch;
    ]
