(* The paper's section 4.3.1 investigation, condensed: which
   implementation should the Linux kernel's read_barrier_depends use
   on ARMv8?

   Run with:  dune exec examples/kernel_rbd.exe *)

open Wmm_isa
open Wmm_platform
open Wmm_workload
open Wmm_core

let arch = Arch.Armv8

let platform ?(rbd = Kernel.Rbd_none) ?(inject = []) () =
  let config = { (Kernel.default arch) with Kernel.rbd } in
  let config =
    List.fold_left (fun c (m, u) -> Kernel.with_injection c m u) config inject
  in
  Generate.Kernel_platform config

let () =
  (* First: is the benchmark sensitive to this code path at all?
     (The paper's Fig. 9.) *)
  let profile = Kernelbench.netperf_udp in
  let cf1 = Wmm_costfn.Cost_function.make arch 1 in
  let rbd uop = platform ~inject:[ (Kernel.Read_barrier_depends, [ uop ]) ] () in
  let sweep =
    Experiment.run (fun batch ->
        Experiment.sweep_deferred batch ~samples:4 ~code_path:"read_barrier_depends"
          ~base:(rbd (Wmm_costfn.Cost_function.nop_padding arch cf1))
          ~inject:(fun c -> rbd (Wmm_costfn.Cost_function.uop c))
          profile)
  in
  Printf.printf "netperf_udp sensitivity to read_barrier_depends: k=%.5f +-%.1f%%\n\n"
    sweep.Experiment.fit.Sensitivity.k sweep.Experiment.fit.Sensitivity.k_error_percent;

  (* Then: compare the candidate fencing strategies from the ARMv8
     manual's dependency-ordering recipes (the paper's Fig. 10),
     pricing each with eq. 2. *)
  List.iter
    (fun strategy ->
      if strategy <> Kernel.Rbd_none then begin
        let rel =
          Experiment.run (fun batch ->
              Experiment.relative_deferred batch ~samples:4
                ~label:(Kernel.rbd_name strategy) profile ~base:(platform ())
                ~test:(platform ~rbd:strategy ()))
          |> Result.get_ok
        in
        Printf.printf "%-10s %+6.1f%%   inferred cost %5.1f ns/invocation\n"
          (Kernel.rbd_name strategy)
          ((rel.Wmm_util.Stats.gmean -. 1.) *. 100.)
          (Experiment.inferred_cost_ns sweep.Experiment.fit rel)
      end)
    Kernel.all_rbd_strategies;
  print_endline
    "\n(The paper's conclusion: isb is unreasonable; if ordering is required,\n\
     dmb ishld or dmb ish are the best-case scenarios.)"
