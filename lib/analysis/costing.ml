open Wmm_isa
open Wmm_machine
module Engine = Wmm_engine.Engine
module Task = Wmm_engine.Task
module Sensitivity = Wmm_core.Sensitivity
module Cost_function = Wmm_costfn.Cost_function

type costed = {
  strategy : Placement.strategy;
  micro_ns : float;
  relative : float;
  fit : Sensitivity.fit;
  inferred_ns : float;
}

let fast () = Sys.getenv_opt "WMM_FAST" <> None

let spin_counts () = if fast () then [ 8; 64 ] else [ 2; 8; 32; 128; 512 ]
let samples () = if fast () then 2 else 3
let units () = if fast () then 32 else 128

type injection = Fence | Nop_pad | Spin of int

let injection_tag = function
  | Fence -> "fence"
  | Nop_pad -> "nop"
  | Spin n -> "spin:" ^ string_of_int n

(* Unresolved static locations get distinct private cells well away
   from the test's real locations, so they add work without adding
   artificial contention. *)
let loc_map (g : Event_graph.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : Event_graph.access) ->
      let l = match a.loc with Some l -> l | None -> 100 + a.node in
      Hashtbl.replace tbl (a.tid, a.index) l)
    g.accesses;
  tbl

let uops_of_instr locs tid index instr =
  let resolve () = try Hashtbl.find locs (tid, index) with Not_found -> 100 in
  match instr with
  | Instr.Load { order; _ } | Instr.Load_exclusive { order; _ } -> (
      match order with
      | Instr.Acquire -> [ Uop.Load_acquire (resolve ()) ]
      | _ -> [ Uop.Load (resolve ()) ])
  | Instr.Store { order; _ } | Instr.Store_exclusive { order; _ } -> (
      match order with
      | Instr.Release -> [ Uop.Store_release (resolve ()) ]
      | _ -> [ Uop.Store (resolve ()) ])
  | Instr.Barrier b -> [ Placement.barrier_uop b ]
  | Instr.Mov _ | Instr.Op _ -> [ Uop.Busy 1 ]
  | Instr.Cbnz _ | Instr.Cbz _ -> [ Uop.Branch ]
  | Instr.Nop -> [ Uop.Busy 1 ]

let injection_uop arch injection =
  match injection with
  | Fence -> None (* per-site: the site's own barrier *)
  | Nop_pad -> Some (Uop.Nops 1)
  | Spin n -> Some (Cost_function.uop (Cost_function.make arch n))

let streams arch (g : Event_graph.t) (strategy : Placement.strategy) injection ~units =
  let locs = loc_map g in
  Array.mapi
    (fun tid thread ->
      let body = ref [] in
      Array.iteri
        (fun index instr ->
          List.iter
            (fun (s : Placement.site) ->
              if s.Placement.tid = tid && s.Placement.at = index then
                let u =
                  match injection_uop arch injection with
                  | Some u -> u
                  | None -> Placement.barrier_uop s.Placement.barrier
                in
                body := u :: !body)
            strategy;
          List.iter (fun u -> body := u :: !body) (uops_of_instr locs tid index instr))
        thread;
      let body = Uop.pack_list (List.rev !body) in
      Array.concat (List.init units (fun _ -> body)))
    g.program.Program.threads

let program_digest (p : Program.t) =
  Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

let wall_task arch g strategy injection =
  let samples = samples () and units = units () in
  let key =
    Printf.sprintf "analysis/cost/v1|%s|%s|%s|%s|u%d|s%d" (Arch.name arch)
      (program_digest g.Event_graph.program)
      (Placement.describe strategy) (injection_tag injection) units samples
  in
  let label =
    Printf.sprintf "cost %s %s %s" (Arch.name arch) g.Event_graph.program.Program.name
      (injection_tag injection)
  in
  Task.pure ~key ~label (fun () ->
      let ss = streams arch g strategy injection ~units in
      let total = ref 0. in
      for seed = 1 to samples do
        let config = Perf.config ~seed arch in
        total := !total +. Perf.wall_ns config (Perf.run config ss)
      done;
      !total /. float_of_int samples)

let rank_deferred ~batch arch g strategies =
  let per_strategy =
    List.map
      (fun strategy ->
        let get_base = Engine.Batch.add batch (wall_task arch g strategy Nop_pad) in
        let get_fence = Engine.Batch.add batch (wall_task arch g strategy Fence) in
        let spins =
          List.map
            (fun n -> (n, Engine.Batch.add batch (wall_task arch g strategy (Spin n))))
            (spin_counts ())
        in
        (strategy, get_base, get_fence, spins))
      strategies
  in
  fun () ->
    let value get = match Engine.value (get ()) with Ok v -> Some v | Error _ -> None in
    let costed =
      List.map
        (fun (strategy, get_base, get_fence, spins) ->
          let micro_ns = Placement.micro_cost_ns arch strategy in
          match (value get_base, value get_fence) with
          | Some base, Some fence when base > 0. && fence > 0. ->
              let relative = base /. fence in
              let points =
                List.filter_map
                  (fun (n, get) ->
                    match value get with
                    | Some w when w > 0. ->
                        let x = Cost_function.standalone_ns (Cost_function.make arch n) in
                        Some (x, base /. w)
                    | _ -> None)
                  spins
              in
              let fit =
                if List.length points >= 2 then (
                  let xs = Array.of_list (List.map fst points) in
                  let ys = Array.of_list (List.map snd points) in
                  Sensitivity.fit_k ~xs ~ys)
                else Sensitivity.unavailable
              in
              let inferred_ns =
                if Sensitivity.available fit then
                  Sensitivity.cost_of_change ~k:fit.Sensitivity.k ~p:relative
                else nan
              in
              { strategy; micro_ns; relative; fit; inferred_ns }
          | _ ->
              {
                strategy;
                micro_ns;
                relative = nan;
                fit = Sensitivity.unavailable;
                inferred_ns = nan;
              })
        per_strategy
    in
    (* Rank by inferred cost; degraded fits sink to the bottom. *)
    List.sort
      (fun a b ->
        match (Float.is_nan a.inferred_ns, Float.is_nan b.inferred_ns) with
        | true, false -> 1
        | false, true -> -1
        | _ ->
            compare
              (a.inferred_ns, Placement.describe a.strategy)
              (b.inferred_ns, Placement.describe b.strategy))
      costed
