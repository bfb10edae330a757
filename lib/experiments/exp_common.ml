open Wmm_isa
open Wmm_platform
open Wmm_workload
open Wmm_core

let fast () = Sys.getenv_opt "WMM_FAST" <> None

let samples () = if fast () then 2 else 6

let sweep_counts () =
  if fast () then [ 4; 32; 128; 512 ] else [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]

let jvm_platform ?(mode = Jvm.Barriers) ?(lock_patch = false) ?(overrides = [])
    ?(inject_all = []) ?(inject = []) arch =
  let config = { (Jvm.default arch) with Jvm.mode; lock_patch; elemental_override = overrides } in
  let config = if inject_all = [] then config else Jvm.with_injection_all config inject_all in
  let config =
    List.fold_left (fun c (e, uops) -> Jvm.with_injection c e uops) config inject
  in
  Generate.Jvm_platform config

let kernel_platform ?(rbd = Kernel.Rbd_none) ?(inject = []) ?(inject_all = []) arch =
  let config = { (Kernel.default arch) with Kernel.rbd } in
  let config =
    List.fold_left (fun c (m, uops) -> Kernel.with_injection c m uops) config inject
  in
  let config =
    if inject_all = [] then config
    else
      List.fold_left (fun c m -> Kernel.with_injection c m inject_all) config
        Kernel.all_macros
  in
  Generate.Kernel_platform config

let light_for arch = arch = Arch.Armv8

let nop_uop arch ~light =
  let cf = Wmm_costfn.Cost_function.make ~light arch 1 in
  Wmm_costfn.Cost_function.nop_padding arch cf

let jvm_nop_base arch = jvm_platform ~inject_all:[ nop_uop arch ~light:(light_for arch) ] arch

let kernel_nop_base arch = kernel_platform ~inject_all:[ nop_uop arch ~light:false ] arch

let fmt_fit (fit : Sensitivity.fit) =
  if not (Sensitivity.available fit) then "(no fit: insufficient points)"
  else Printf.sprintf "k=%.5f +-%.1f%%" fit.Sensitivity.k fit.Sensitivity.k_error_percent

let fmt_sweep_fit (sweep : Experiment.sweep) =
  fmt_fit sweep.Experiment.fit
  ^
  if sweep.Experiment.dropped > 0 then
    Printf.sprintf " [%d point%s dropped]" sweep.Experiment.dropped
      (if sweep.Experiment.dropped = 1 then "" else "s")
  else ""

let fmt_summary (s : Wmm_util.Stats.summary) =
  Printf.sprintf "%.4f [%.4f, %.4f]" s.Wmm_util.Stats.gmean s.Wmm_util.Stats.ci.Wmm_util.Stats.lo
    s.Wmm_util.Stats.ci.Wmm_util.Stats.hi

let fmt_pct_change (s : Wmm_util.Stats.summary) =
  let pct = (s.Wmm_util.Stats.gmean -. 1.) *. 100. in
  Printf.sprintf "%+.1f%%" pct

let relative_cells = function
  | Ok rel -> [ fmt_summary rel; fmt_pct_change rel ]
  | Error msg -> [ "failed: " ^ msg; "-" ]

let mean_or_nan = function [] -> nan | xs -> Wmm_util.Stats.mean (Array.of_list xs)

let header title =
  let rule = String.make (String.length title + 8) '=' in
  Printf.sprintf "%s\n=== %s ===\n%s" rule title rule
