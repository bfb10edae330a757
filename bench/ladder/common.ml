(* Plumbing shared by the workloads: run settings, clocks, op tallies,
   memory high-water marks, and the assembly of per-layer metrics from
   the span recorder. *)

type ctx = {
  seed : int;
  seconds : float;  (** cap on the measured part of an untraced run *)
  smoke : bool;  (** ~1% sizes, for the test suite *)
  scratch : string;  (** per-process directory for sockets, caches, dumps *)
}

(* The ladder runs from the repository root; its checked-in expectations
   live here. *)
let data = "bench/ladder"

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

(* Settle the heap before a timed phase, so the garbage of set-up or of
   the previous phase is not collected inside it. *)
let settle () = Gc.full_major ()

let shuffle ~seed a = Wmm_util.Rng.shuffle_in_place (Wmm_util.Rng.create seed) a

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Op tallies.                                                          *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ms : float array;
  mutable n_lat : int;
}

let tally () = { attempted = 0; failed = 0; lat_ms = Array.make 4096 0.; n_lat = 0 }

(* A failed check; the first few are described on stderr. *)
let fail t msg =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then prerr_endline ("ladder: check failed: " ^ msg)

(* One op: [ok] is the result of its output checks. *)
let op t ?lat_ms ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then fail t (msg ());
  Option.iter
    (fun ms ->
      if t.n_lat = Array.length t.lat_ms then begin
        let a = Array.make (2 * t.n_lat) 0. in
        Array.blit t.lat_ms 0 a 0 t.n_lat;
        t.lat_ms <- a
      end;
      t.lat_ms.(t.n_lat) <- ms;
      t.n_lat <- t.n_lat + 1)
    lat_ms

let latencies t = Array.sub t.lat_ms 0 t.n_lat

(* ------------------------------------------------------------------ *)
(* What a worker reports.                                               *)
(* ------------------------------------------------------------------ *)

type spread = { q1 : float; q3 : float; ci_lo : float; ci_hi : float; n : int }

let spread_of a =
  let q1, q3 = Metrics.quartiles a in
  let ci_lo, ci_hi = Metrics.ci95 a in
  { q1; q3; ci_lo; ci_hi; n = Array.length a }

type report = {
  tally : tally;
  metrics : (string * float) list;
  spreads : (string * spread) list;
}

(* A run's ops split into this many consecutive blocks; a latency
   percentile is the median of the blocks' percentiles, so a burst of
   interference from outside the program moves one block, not the
   result.  Every full-size block holds over 1,000 ops, which leaves
   at least ten beyond its p99. *)
let blocks = 4

let split a =
  let n = Array.length a in
  let k = if n >= 400 * blocks then blocks else 1 in
  Array.init k (fun b -> Array.sub a (b * n / k) (((b + 1) * n / k) - (b * n / k)))

(* The untraced end-to-end metrics.  [rates] are throughputs of the
   run's rounds or blocks, and ops_per_s is their median. *)
let e2e_report t ~rates ~rss_mb =
  let lat = latencies t in
  let pct p = Metrics.median (Array.map (fun b -> Metrics.percentile b p) (split lat)) in
  {
    tally = t;
    metrics =
      [
        ("ops_per_s", Metrics.median rates);
        ("latency_ms_p50", pct 50.);
        ("latency_ms_p99", pct 99.);
        ("peak_rss_mb", rss_mb);
      ];
    spreads =
      List.filter_map
        (fun (name, a) -> if Array.length a > 1 then Some (name, spread_of a) else None)
        [ ("ops_per_s", rates); ("latency_ms", lat) ];
  }

(* A closed loop of [n] rounds, each from a settled heap, cut short
   once the run's [seconds] are spent.  The result is every round's
   throughput. *)
let rounds c ~n ~ops_per_round f =
  let start = now_s () in
  let rec go r acc =
    if r = n || (r > 0 && now_s () -. start >= c.seconds) then Array.of_list (List.rev acc)
    else begin
      settle ();
      let a = now_s () in
      f r;
      go (r + 1) ((float_of_int ops_per_round /. (now_s () -. a)) :: acc)
    end
  in
  go 0 []

(* Throughput of each block of a pass, from the ops' completion times
   in op order: a block ends at its last completion and starts where
   the previous block ended. *)
let block_rates done_s ~start =
  let last b = Array.fold_left Float.max neg_infinity b in
  let bs = split done_s in
  Array.mapi
    (fun i b ->
      let from = if i = 0 then start else last bs.(i - 1) in
      float_of_int (Array.length b) /. (last b -. from))
    bs

(* Per-layer metrics: span-derived times and call counts for every
   traced layer, plus the counters the workload passes in.  Layers a
   workload never calls read 0. *)
let layer_report t ~counters =
  let layers = Span.layers () in
  let get name = Hashtbl.find_opt layers name in
  let span_metrics =
    List.concat_map
      (fun layer ->
        match get layer with
        | None -> []
        | Some l ->
            [
              (layer ^ ".busy_s", float_of_int l.Span.self_ns /. 1e9);
              (layer ^ ".calls", float_of_int l.Span.calls);
            ])
      [
        "litmus.parse"; "model.explore"; "machine.relaxed"; "certify.emit"; "cert.serialize";
        "cert.check"; "synth.generate"; "workload.generate"; "machine.perf"; "core.fit";
        "served.roundtrip";
      ]
  in
  let explore_ms =
    match get "model.explore" with
    | None -> [||]
    | Some l -> Array.of_list (List.map (fun d -> float_of_int d /. 1e6) l.Span.durations_ns)
  in
  let pct p = if explore_ms = [||] then 0. else Metrics.percentile explore_ms p in
  let given = span_metrics @ [ ("model.explore.p50_ms", pct 50.); ("model.explore.p99_ms", pct 99.) ] @ counters in
  let metrics =
    List.filter_map
      (fun (m : Metrics.metric) ->
        if m.Metrics.bound <> None then None
        else Some (m.Metrics.name, Option.value (List.assoc_opt m.Metrics.name given) ~default:0.))
      Metrics.per_layer
  in
  { tally = t; metrics; spreads = [] }

(* Exploration counters summed over the traced chunks of a phase, from
   deltas of Enumerate.global_stats. *)
let explore_counts = Array.make 5 0

let counting f =
  let open Wmm_model.Enumerate in
  let fields s = [| s.generated; s.consistent; s.pruned; s.revisits; s.symmetry_skips |] in
  let before = fields (global_stats ()) in
  let r = f () in
  Array.iteri (fun i a -> explore_counts.(i) <- explore_counts.(i) + a - before.(i)) (fields (global_stats ()));
  r

let model_counters () =
  let c = Array.map float_of_int explore_counts in
  [
    ("model.explored", c.(0));
    ("model.consistent", c.(1));
    ("model.pruned", c.(2));
    ("model.revisits", c.(3));
    ("model.symmetry_skips", c.(4));
    ("model.useful_ratio", if c.(0) > 0. then c.(1) /. c.(0) else 0.);
  ]

(* A traced phase runs every chunk of work twice, untraced and traced,
   alternating which goes first so that drift in machine speed and
   warm caches fall on both sides alike.  The result is the untraced
   and traced wall totals. *)
let interleave chunks ~untraced ~traced =
  settle ();
  let u = ref 0. and tr = ref 0. in
  let time f chunk =
    let a = now_s () in
    f chunk;
    now_s () -. a
  in
  let run_u chunk = u := !u +. time untraced chunk in
  let run_t chunk =
    Span.enabled := true;
    tr := !tr +. time (fun ch -> counting (fun () -> traced ch)) chunk;
    Span.enabled := false
  in
  Array.iteri
    (fun i chunk ->
      if i mod 2 = 0 then (run_u chunk; run_t chunk) else (run_t chunk; run_u chunk))
    chunks;
  (!u, !tr)

(* Coverage is the share of traced wall time inside layer spans; the
   overhead is the traced wall over the untraced one, minus one. *)
let trace_health ~untraced_s ~traced_s ~covered_s =
  [ ("trace.coverage", covered_s /. traced_s); ("trace.overhead", (traced_s /. untraced_s) -. 1.) ]

let covered_s names =
  let layers = Span.layers () in
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt layers n with
      | Some l -> acc +. (float_of_int l.Span.self_ns /. 1e9)
      | None -> acc)
    0. names
