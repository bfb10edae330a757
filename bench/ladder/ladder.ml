(* The layered benchmark ladder.

   ladder.exe run     [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE] [--smoke]
   ladder.exe trace   [--workload W] [--seed S] [--out layers.json] [--chrome trace.json]
                      [--check-counts | --write-counts] [--smoke]
   ladder.exe compare PARENT CHANGE
   ladder.exe smoke

   Every workload runs in a fresh worker subprocess (`ladder.exe worker
   ...`), which sets up, prints "ready", measures and prints one JSON
   report.  Set-up time is measured by the parent from spawn to "ready",
   over several workers that only set up, and reported as the median.
   Run it from the repository root: it reads bench/ladder/expected*,
   drives _build/default/bin/wmm_bench.exe for the served workload and
   keeps its scratch files under _ladder/. *)

open Common
module Json = Wmm_served.Json

let workloads = [ "library"; "synth"; "stress"; "fig5"; "served" ]
let counts_file = Filename.concat data "expected_counts.txt"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ladder: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Worker side.                                                         *)
(* ------------------------------------------------------------------ *)

type mode = Setup | Run | Trace

let mode_name = function Setup -> "setup" | Run -> "run" | Trace -> "trace"

let report_json (r : report) =
  Json.to_string
    (Json.Obj
       [
         ("attempted", Json.of_int r.tally.attempted);
         ("failed", Json.of_int r.tally.failed);
         ("metrics", Json.Obj (List.map (fun (n, v) -> (n, Metrics.jnum v)) r.metrics));
         ( "spreads",
           Json.Obj
             (List.map
                (fun (n, s) ->
                  ( n,
                    Json.Obj
                      [
                        ("q1", Metrics.jnum s.q1); ("q3", Metrics.jnum s.q3);
                        ("ci_lo", Metrics.jnum s.ci_lo); ("ci_hi", Metrics.jnum s.ci_hi);
                        ("n", Json.of_int s.n);
                      ] ))
                r.spreads) );
       ])

let worker name mode c ~chrome =
  let origin = Span.now_ns () in
  mkdir_p c.scratch;
  at_exit (fun () ->
      List.iter Served_load.kill !Served_load.live;
      rm_rf c.scratch);
  let go ?(discard = ignore) setup run trace =
    (* Set-up is traced in trace mode, for the layers only it calls. *)
    Span.enabled := mode = Trace;
    let st = setup c in
    Span.enabled := false;
    print_endline "ready";
    match mode with
    | Setup -> discard st
    | Run -> print_endline (report_json (run c st))
    | Trace ->
        let r = trace c st in
        let pid = Option.value (List.find_index (( = ) name) workloads) ~default:0 in
        Option.iter
          (fun path ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Span.chrome_events ~pid ~origin_ns:origin)))
          chrome;
        print_endline (report_json r)
  in
  match name with
  | "library" ->
      Verdicts.Library_load.(go setup run trace)
  | "synth" -> Verdicts.Synth_load.(go setup run trace)
  | "stress" -> Stress.(go setup run trace)
  | "fig5" -> Figure.(go setup run trace)
  | "served" ->
      Served_load.(go ~discard:(fun st -> stop st.daemon) setup run trace)
  | w -> die "unknown workload %s" w

(* ------------------------------------------------------------------ *)
(* Parent side.                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  spreads : (string * Json.t) list;
}

(* Spawn one worker; the result is the time to its "ready" line and
   its report, if it printed one and exited cleanly. *)
let spawn name mode c ~chrome =
  let exe = Sys.executable_name in
  let args =
    [ exe; "worker"; name; "--mode"; mode_name mode; "--seed"; string_of_int c.seed;
      "--seconds"; Printf.sprintf "%.17g" c.seconds ]
    @ (if c.smoke then [ "--smoke" ] else [])
    @ match chrome with Some f -> [ "--chrome"; f ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let ready = In_channel.input_line ic = Some "ready" in
  let setup_s = now_s () -. t0 in
  let rest = In_channel.input_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let report =
    match (ready, status, List.rev rest) with
    | true, Unix.WEXITED 0, last :: _ -> Result.to_option (Json.parse last)
    | true, Unix.WEXITED 0, [] when mode = Setup -> Some Json.Null
    | _ -> None
  in
  (setup_s, report)

let outcome_of name ~setup_s report =
  match report with
  | None | Some Json.Null ->
      { workload = name; correct = false; attempted = 0; failed = 0; metrics = []; spreads = [] }
  | Some j ->
      let int k = Option.value (Json.int_member k j) ~default:0 in
      let obj k = match Json.member k j with Some (Json.Obj l) -> l | _ -> [] in
      let metrics =
        List.filter_map
          (fun (n, v) -> match v with Json.Num f -> Some (n, f) | _ -> None)
          (obj "metrics")
      in
      let attempted = int "attempted" and failed = int "failed" in
      {
        workload = name;
        correct = attempted > 0 && failed = 0;
        attempted;
        failed;
        metrics = (match setup_s with Some s -> ("setup_s", s) :: metrics | None -> metrics);
        spreads = obj "spreads";
      }

(* Workers that only set up, before the measured one: at least four,
   and more for a cheap set-up, up to 14 or 1.5 s of set-up. *)
let measure name c =
  let rec setups acc spent =
    let n = List.length acc in
    if c.smoke && n = 1 then acc
    else if n >= 14 || (n >= 4 && spent >= 1.5) then acc
    else
      let s, r = spawn name Setup c ~chrome:None in
      setups ((s, r) :: acc) (spent +. s)
  in
  let extra = setups [] 0. in
  let setup_s, report = spawn name Run c ~chrome:None in
  let times = Array.of_list (setup_s :: List.map fst extra) in
  let o = outcome_of name ~setup_s:(Some (Metrics.median times)) report in
  { o with correct = o.correct && List.for_all (fun (_, r) -> r <> None) extra }

let trace_one name c ~chrome =
  let _, report = spawn name Trace c ~chrome in
  outcome_of name ~setup_s:None report

let catalog traced = if traced then Metrics.per_layer else Metrics.end_to_end

let metrics_json ~traced o =
  Json.Obj
    (List.map
       (fun (m : Metrics.metric) ->
         Metrics.metric_json m.Metrics.name
           (Option.value (List.assoc_opt m.Metrics.name o.metrics) ~default:0.))
       (catalog traced))

let print_table ~traced c o =
  Printf.eprintf "%s  seed %d  %s  ops %d  ops_failed %d%s\n" o.workload c.seed
    (if traced then "traced" else "untraced")
    o.attempted o.failed
    (if o.correct then "" else "  INCORRECT");
  List.iter
    (fun (m : Metrics.metric) ->
      let v = Option.value (List.assoc_opt m.Metrics.name o.metrics) ~default:0. in
      let shown = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v in
      Printf.eprintf "  %-34s %14s %s\n" m.Metrics.name shown m.Metrics.unit_)
    (catalog traced);
  List.iter
    (fun (name, s) ->
      let f k = Option.value (Metrics.float_member k s) ~default:nan in
      Printf.eprintf "  spread of %-24s q1 %.6g  q3 %.6g  95%% CI of the mean [%.6g, %.6g]  n %d\n"
        name (f "q1") (f "q3") (f "ci_lo") (f "ci_hi")
        (Option.value (Json.int_member "n" s) ~default:0))
    o.spreads;
  flush stderr

let record_json ~traced ~started c o =
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str o.workload); ("seed", Json.of_int c.seed);
         ("trace", Json.Bool traced); ("started", Metrics.jnum started);
         ("correct", Json.Bool o.correct); ("attempted", Json.of_int o.attempted);
         ("failed", Json.of_int o.failed); ("metrics", metrics_json ~traced o);
         ("spreads", Json.Obj o.spreads);
       ])

(* With --workload, as BENCHMARK.json's command runs it, the last
   stdout line carries exactly correct, attempted, failed and metrics. *)
let result_line ~traced o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.correct); ("attempted", Json.of_int o.attempted);
         ("failed", Json.of_int o.failed); ("metrics", metrics_json ~traced o);
       ])

let run_cmd c ~only ~traced ~out =
  let names = match only with Some w -> [ w ] | None -> workloads in
  let all_ok = ref true in
  List.iter
    (fun name ->
      let started = Unix.gettimeofday () in
      let o = if traced then trace_one name c ~chrome:None else measure name c in
      if not o.correct then all_ok := false;
      print_table ~traced c o;
      Option.iter
        (fun path ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
              output_string oc (record_json ~traced ~started c o ^ "\n")))
        out;
      print_endline
        (if only <> None then result_line ~traced o else record_json ~traced ~started c o))
    names;
  if not !all_ok then exit 1

(* ------------------------------------------------------------------ *)
(* trace: every workload traced, per-layer JSON, Chrome trace, counts.  *)
(* ------------------------------------------------------------------ *)

let read_counts () =
  match In_channel.with_open_text counts_file In_channel.input_lines with
  | exception Sys_error e -> die "%s" e
  | lines ->
      List.fold_left
        (fun (seed, tbl) line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ "seed"; s ] -> (int_of_string s, tbl)
          | [ w; m; v ] when line.[0] <> '#' -> (seed, ((w, m), v) :: tbl)
          | _ -> (seed, tbl))
        (0, []) lines

let count_lines outcomes =
  List.concat_map
    (fun o ->
      List.map
        (fun m ->
          Printf.sprintf "%s %s %s" o.workload m
            (Metrics.num (Option.value (List.assoc_opt m o.metrics) ~default:0.)))
        Metrics.exact_counts)
    outcomes

(* synth draws its tests from the seed; the other workloads' counts are
   the same for every seed. *)
let seed_dependent = [ "synth" ]

let check_counts c outcomes =
  let seed, table = read_counts () in
  let bad = ref 0 in
  List.iter
    (fun o ->
      if seed = c.seed || not (List.mem o.workload seed_dependent) then
        List.iter
          (fun m ->
            let got = Metrics.num (Option.value (List.assoc_opt m o.metrics) ~default:0.) in
            match List.assoc_opt (o.workload, m) table with
            | Some want when want = got -> ()
            | want ->
                incr bad;
                Printf.eprintf "counts: %s %s: expected %s, got %s\n" o.workload m
                  (Option.value want ~default:"nothing") got)
          Metrics.exact_counts
      else
        Printf.eprintf "counts: %s skipped (its counts are recorded for seed %d)\n" o.workload
          seed)
    outcomes;
  !bad = 0

let trace_cmd c ~only ~out ~chrome ~check ~write =
  let names = match only with Some w -> [ w ] | None -> workloads in
  let parts = ref [] in
  let outcomes =
    List.map
      (fun name ->
        let part =
          Option.map (fun f -> Printf.sprintf "%s.%s.part" f name) chrome
        in
        let o = trace_one name c ~chrome:part in
        Option.iter (fun p -> parts := p :: !parts) part;
        print_table ~traced:true c o;
        o)
      names
  in
  Option.iter
    (fun path ->
      let events =
        List.concat_map
          (fun p ->
            let l = try In_channel.with_open_text p In_channel.input_lines with Sys_error _ -> [] in
            (try Sys.remove p with Sys_error _ -> ());
            l)
          (List.rev !parts)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\"traceEvents\":[\n";
          output_string oc (String.concat ",\n" events);
          output_string oc "\n]}\n"))
    chrome;
  let layers =
    Json.Obj
      [
        ("seed", Json.of_int c.seed); ("smoke", Json.Bool c.smoke);
        ( "workloads",
          Json.Obj
            (List.map
               (fun o ->
                 ( o.workload,
                   Json.Obj
                     [
                       ("correct", Json.Bool o.correct); ("attempted", Json.of_int o.attempted);
                       ("failed", Json.of_int o.failed); ("metrics", metrics_json ~traced:true o);
                     ] ))
               outcomes) );
      ]
  in
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string layers ^ "\n")))
    out;
  if (check || write) && (c.smoke || only <> None) then
    die "--check-counts and --write-counts need a full trace of every workload";
  if write then
    Out_channel.with_open_text counts_file (fun oc ->
        output_string oc
          "# Exact counts of `ladder.exe trace`: the only counts a change may cite.\n\
           # Regenerate with `ladder.exe trace --seed 1 --write-counts`.  synth's\n\
           # counts depend on the seed; the other workloads' do not.\n";
        Printf.fprintf oc "seed %d\n" c.seed;
        List.iter (fun l -> output_string oc (l ^ "\n")) (count_lines outcomes));
  let counts_ok = (not check) || check_counts c outcomes in
  if not (counts_ok && List.for_all (fun o -> o.correct) outcomes) then exit 1

(* ------------------------------------------------------------------ *)
(* smoke: ~1% of every workload, untraced and traced, checked against   *)
(* BENCHMARK.json.                                                      *)
(* ------------------------------------------------------------------ *)

let smoke_cmd c =
  let bench =
    match Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "BENCHMARK.json: %s" e
    | exception Sys_error e -> die "%s" e
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared key =
    match Json.member key bench with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            ( Option.value (Json.str_member "name" m) ~default:"",
              ( Option.value (Json.str_member "unit" m) ~default:"",
                Option.value (Json.str_member "better" m) ~default:"",
                Metrics.float_member "bound" m ) ))
          l
    | _ -> []
  in
  let agree key catalog =
    let d = declared key in
    let mine =
      List.map
        (fun (m : Metrics.metric) ->
          (m.Metrics.name, (m.Metrics.unit_, Metrics.better_name m.Metrics.better, m.Metrics.bound)))
        catalog
    in
    if d <> mine then problem "BENCHMARK.json %s differs from the ladder's metric catalog" key
  in
  agree "end_to_end" Metrics.end_to_end;
  agree "per_layer" Metrics.per_layer;
  let declared_workloads =
    match Json.member "workloads" bench with
    | Some (Json.Arr l) -> List.filter_map (Json.str_member "name") l
    | _ -> []
  in
  if declared_workloads <> workloads then problem "BENCHMARK.json workloads differ from the ladder's";
  let check ~traced o =
    let before = List.length !problems in
    if not o.correct then problem "%s (%s): ops %d, ops_failed %d" o.workload
        (if traced then "traced" else "untraced") o.attempted o.failed;
    List.iter
      (fun (m : Metrics.metric) ->
        if not (List.mem_assoc m.Metrics.name o.metrics) then
          problem "%s: no %s" o.workload m.Metrics.name)
      (catalog traced);
    if List.length !problems > before then print_table ~traced c o
  in
  List.iter
    (fun name ->
      check ~traced:false (measure name c);
      check ~traced:true (trace_one name c ~chrome:None))
    workloads;
  match !problems with
  | [] -> print_endline "ladder smoke: OK"
  | ps ->
      List.iter (fun p -> prerr_endline ("ladder smoke: " ^ p)) (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let seed = ref 1 and seconds = ref 20. and smoke = ref false and traced = ref false in
  let only = ref None and out = ref None and chrome = ref None and mode = ref Run in
  let check = ref false and write = ref false and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--workload" :: v :: r ->
        if not (List.mem v workloads) then die "unknown workload %s" v;
        only := Some v;
        parse r
    | "--trace" :: v :: r -> traced := v = "1"; parse r
    | "--out" :: v :: r -> out := Some v; parse r
    | "--chrome" :: v :: r -> chrome := Some v; parse r
    | "--smoke" :: r -> smoke := true; parse r
    | "--check-counts" :: r -> check := true; parse r
    | "--write-counts" :: r -> write := true; parse r
    | "--mode" :: v :: r ->
        mode := (match v with "setup" -> Setup | "trace" -> Trace | _ -> Run);
        parse r
    | a :: r when String.length a > 0 && a.[0] <> '-' -> positional := a :: !positional; parse r
    | a :: _ -> die "unknown argument %s" a
  in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  (try parse rest with Failure _ -> die "bad argument value");
  let c =
    {
      seed = !seed;
      seconds = (if !smoke then 0.2 else !seconds);
      smoke = !smoke;
      scratch = Filename.concat "_ladder" (Printf.sprintf "w%d" (Unix.getpid ()));
    }
  in
  match (cmd, List.rev !positional) with
  | "run", [] -> run_cmd c ~only:!only ~traced:!traced ~out:!out
  | "trace", [] -> trace_cmd c ~only:!only ~out:!out ~chrome:!chrome ~check:!check ~write:!write
  | "compare", [ parent; change ] -> if not (Compare.main ~workloads parent change) then exit 1
  | "smoke", [] -> smoke_cmd { c with smoke = true; seconds = 0.2 }
  | "worker", [ name ] -> worker name !mode c ~chrome:!chrome
  | _ ->
      prerr_endline
        "usage: ladder.exe run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE] [--smoke]\n\
        \       ladder.exe trace [--workload W] [--seed S] [--out FILE] [--chrome FILE] [--check-counts|--write-counts] [--smoke]\n\
        \       ladder.exe compare PARENT CHANGE\n\
        \       ladder.exe smoke";
      exit 2
