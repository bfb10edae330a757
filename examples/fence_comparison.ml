(* The paper's section 4.2.1 story: how much does a barrier
   instruction choice cost, and can a microbenchmark tell you?

   On POWER, swapping the StoreStore barrier from lwsync to hwsync is
   visible both in vitro (a microbenchmark separates the two
   instructions threefold) and in vivo (spark drops ~12%), and the
   in-vivo inferred cost agrees across benchmarks: the instruction's
   behaviour is workload agnostic.  On ARMv8 the dmb variants look
   identical in vitro; only macrobenchmarks expose the difference,
   and the size depends on the workload.

   Run with:  dune exec examples/fence_comparison.exe *)

open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

(* The StoreStore swap on one benchmark, and the benchmark's
   sensitivity to that code path, sampled in one batch. *)
let swap_and_sweep arch profile =
  let light = arch = Arch.Armv8 in
  let inject uops =
    Generate.Jvm_platform (Jvm.with_injection (Jvm.default arch) Barrier.Store_store uops)
  in
  let cf1 = Wmm_costfn.Cost_function.make ~light arch 1 in
  let swapped =
    Generate.Jvm_platform
      {
        (Jvm.default arch) with
        Jvm.elemental_override = [ (Barrier.Store_store, Uop.Fence_full) ];
      }
  in
  Experiment.run (fun batch ->
      let rel =
        Experiment.relative_deferred batch ~samples:4 ~label:"swap" profile
          ~base:(Generate.Jvm_platform (Jvm.default arch))
          ~test:swapped
      in
      let sweep =
        Experiment.sweep_deferred batch ~samples:4 ~light ~code_path:"StoreStore"
          ~base:(inject [ Wmm_costfn.Cost_function.nop_padding arch cf1 ])
          ~inject:(fun c -> inject [ Wmm_costfn.Cost_function.uop c ])
          profile
      in
      fun () -> (Result.get_ok (rel ()), sweep ()))

let () =
  List.iter
    (fun arch ->
      let timing = Timing.for_arch arch in
      let weak_name, strong_name, weak_uop =
        match arch with
        | Arch.Armv8 -> ("dmb ishst", "dmb ish", Uop.Fence_store)
        | Arch.Power7 -> ("lwsync", "sync", Uop.Fence_lw)
      in
      Printf.printf "=== %s: StoreStore as %s vs %s ===\n" (Arch.long_name arch) weak_name
        strong_name;
      (* In vitro. *)
      let micro_weak = Perf.sequence_cost_ns timing [ weak_uop ] in
      let micro_strong = Perf.sequence_cost_ns timing [ Uop.Fence_full ] in
      Printf.printf "microbenchmark: %s %.1f ns, %s %.1f ns (delta %.1f ns)\n" weak_name
        micro_weak strong_name micro_strong
        (micro_strong -. micro_weak);
      (* In vivo, on spark and a couple of other benchmarks. *)
      List.iter
        (fun (profile : Profile.t) ->
          let rel, sweep = swap_and_sweep arch profile in
          let fit = sweep.Experiment.fit in
          let inferred = Experiment.inferred_cost_ns fit rel in
          Printf.printf "  %-10s %+5.1f%%  k=%.5f  inferred delta %.1f ns  %s\n"
            profile.Profile.name
            ((rel.Wmm_util.Stats.gmean -. 1.) *. 100.)
            fit.Sensitivity.k inferred
            (if
               Experiment.divergence_interesting
                 { Experiment.micro_ns = micro_strong -. micro_weak; macro_ns = inferred }
             then "(diverges from in vitro: context-dependent)"
             else "(agrees with in vitro)"))
        [ Dacapo.spark; Dacapo.h2; Dacapo.sunflow ];
      print_newline ())
    Arch.all
