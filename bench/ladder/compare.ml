(* The compare rule for a parent and a change, each measured as a set of
   run records (the JSON lines `ladder.exe run --out FILE` appends).
   Runs pair up by workload and seed; each pair should run back to back,
   the side that goes first alternating from pair to pair.

   Per workload and end-to-end metric:
   - regression: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: either side's quartile spread is wider than the bound,
     unless every change run beats every parent run;
   - gain: the change wins at least 9 in 10 pairs (ties count for
     neither side) and the medians differ by more than the parent's
     quartile spread;
   - otherwise unchanged.
   The share of failed ops is compared too: a change that fails more
   ops than its parent is flagged, and none of its gains count. *)

module Json = Wmm_served.Json

type run = {
  workload : string;
  seed : int;
  started : float;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let run_of_json j =
  let int name = Option.value (Json.int_member name j) ~default:0 in
  match (Json.str_member "workload" j, Json.member "metrics" j, Json.bool_member "trace" j) with
  | Some workload, Some (Json.Obj ms), Some false ->
      Some
        {
          workload;
          seed = int "seed";
          started = Option.value (Metrics.float_member "started" j) ~default:0.;
          attempted = int "attempted";
          failed = int "failed";
          values =
            List.filter_map
              (fun (name, m) -> Option.map (fun v -> (name, v)) (Metrics.float_member "value" m))
              ms;
        }
  | _ -> None

let load path =
  let files =
    if Sys.is_directory path then
      List.map (Filename.concat path)
        (List.sort compare
           (List.filter
              (fun f -> Filename.check_suffix f ".json" || Filename.check_suffix f ".jsonl")
              (Array.to_list (Sys.readdir path))))
    else [ path ]
  in
  List.concat_map
    (fun f ->
      In_channel.with_open_text f In_channel.input_lines
      |> List.filter_map (fun line ->
             if String.trim line = "" then None
             else Result.to_option (Json.parse line) |> Fun.flip Option.bind run_of_json))
    files

type verdict = Regression | Unresolved | Gain | Unchanged

let verdict_name = function
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Gain -> "gain"
  | Unchanged -> "unchanged"

(* [better m a b]: a reads better than b under m's direction. *)
let better (m : Metrics.metric) a b =
  match m.Metrics.better with Metrics.Lower -> a < b | Metrics.Higher -> a > b

let judge (m : Metrics.metric) pairs =
  let bound = Option.get m.Metrics.bound in
  let pv = Array.of_list (List.map fst pairs) and cv = Array.of_list (List.map snd pairs) in
  let pm = Metrics.median pv and cm = Metrics.median cv in
  let pq1, pq3 = Metrics.quartiles pv and cq1, cq3 = Metrics.quartiles cv in
  let worse =
    match m.Metrics.better with
    | Metrics.Lower -> (cm -. pm) /. pm
    | Metrics.Higher -> (pm -. cm) /. pm
  in
  let wins = List.length (List.filter (fun (p, c) -> better m c p) pairs) in
  let all_better = Array.for_all (fun c -> Array.for_all (fun p -> better m c p) pv) cv in
  let spread = Float.max ((pq3 -. pq1) /. pm) ((cq3 -. cq1) /. cm) in
  let verdict =
    if worse > bound then Regression
    else if spread > bound && not all_better then Unresolved
    else if
      float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
      && better m cm pm
      && Float.abs (cm -. pm) > pq3 -. pq1
    then Gain
    else Unchanged
  in
  (verdict, (pm, pq1, pq3), (cm, cq1, cq3), worse, wins)

let failure_share runs =
  let a = List.fold_left (fun n r -> n + r.attempted) 0 runs in
  let f = List.fold_left (fun n r -> n + r.failed) 0 runs in
  if a = 0 then 1. else float_of_int f /. float_of_int a

(* Prints the table; the result is false on any regression or any rise
   in the share of failed ops. *)
let main ~workloads parent_path change_path =
  let parent = load parent_path and change = load change_path in
  let ok = ref true in
  Printf.printf "%-8s %-15s %-6s %28s %28s %8s %6s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "worse" "wins" "verdict";
  List.iter
    (fun w ->
      let pairs =
        List.filter_map
          (fun p ->
            if p.workload <> w then None
            else
              Option.map (fun c -> (p, c))
                (List.find_opt (fun c -> c.workload = w && c.seed = p.seed) change))
          parent
      in
      let n = List.length pairs in
      if n > 0 then begin
        if n < 10 then Printf.printf "%s: only %d pairs; the rule needs at least 10\n" w n;
        let parent_first = List.length (List.filter (fun (p, c) -> p.started < c.started) pairs) in
        if abs ((2 * parent_first) - n) > 1 then
          Printf.printf "%s: the parent ran first in %d of %d pairs; alternate the order\n" w
            parent_first n;
        let fp = failure_share (List.map fst pairs) and fc = failure_share (List.map snd pairs) in
        let more_failures = fc > fp in
        List.iter
          (fun (m : Metrics.metric) ->
            let values =
              List.filter_map
                (fun (p, c) ->
                  match (List.assoc_opt m.Metrics.name p.values, List.assoc_opt m.Metrics.name c.values) with
                  | Some a, Some b -> Some (a, b)
                  | _ -> None)
                pairs
            in
            if values <> [] then begin
              let v, (pm, pq1, pq3), (cm, cq1, cq3), worse, wins = judge m values in
              let v = if v = Gain && more_failures then Unchanged else v in
              if v = Regression then ok := false;
              Printf.printf "%-8s %-15s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%% %3d/%-2d  %s\n"
                w m.Metrics.name m.Metrics.unit_ pm pq1 pq3 cm cq1 cq3 (100. *. worse) wins
                (List.length values) (verdict_name v)
            end)
          Metrics.end_to_end;
        Printf.printf "%-8s %-15s %-6s %28.4f %28.4f %s\n" w "failed_share" "ratio" fp fc
          (if more_failures then "MORE FAILURES" else "");
        if more_failures then ok := false
      end)
    workloads;
  !ok
