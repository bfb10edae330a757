type outcome = Ran | Cache_hit | Replayed | Failed of string

type record = {
  label : string;
  key : string;
  wall_s : float;
  queue_depth : int;
  outcome : outcome;
  attempts : int;
}

type exploration = {
  explored : int;
  pruned : int;
  consistent : int;
  revisits : int;
  symmetry_skips : int;
  explore_wall_s : float;
}

(* Counters the served daemon reports alongside the engine's own
   task-level records: request counts by disposition, where answers
   came from (fresh computation, result cache, resume journal, or an
   in-flight computation another client started), latency split by
   hit/compute, and load high-water marks. *)
type server = {
  requests : int;
  ok : int;
  errors : int;
  overloaded : int;  (** Requests shed with a structured reply. *)
  computed : int;
  cache_hits : int;
  journal_hits : int;
  dedup_joined : int;
  streamed_items : int;  (** Response objects written (>= requests). *)
  clients : int;  (** Connections accepted over the lifetime. *)
  hit_wall_total_s : float;
  hit_wall_max_s : float;
  compute_wall_total_s : float;
  compute_wall_max_s : float;
  max_pending : int;  (** Peak admitted-but-unfinished requests. *)
  max_client_queue : int;  (** Peak per-client response backlog. *)
  deadline_exceeded : int;  (** Requests answered with a deadline frame. *)
  executor_recycles : int;  (** Executor threads quarantined + respawned. *)
  client_retries : int;  (** Requests arriving with a retry count > 0. *)
}

type t = {
  lock : Mutex.t;
  mutable entries : record list;  (* reversed *)
  mutable batch_wall_s : float;
  mutable exploration : exploration option;
  mutable server : server option;
}

let create () =
  { lock = Mutex.create (); entries = []; batch_wall_s = 0.; exploration = None;
    server = None }

let add t r =
  Mutex.lock t.lock;
  t.entries <- r :: t.entries;
  Mutex.unlock t.lock

let add_batch_wall t s =
  Mutex.lock t.lock;
  t.batch_wall_s <- t.batch_wall_s +. s;
  Mutex.unlock t.lock

let set_exploration t e =
  Mutex.lock t.lock;
  t.exploration <- Some e;
  Mutex.unlock t.lock

let set_server t s =
  Mutex.lock t.lock;
  t.server <- Some s;
  Mutex.unlock t.lock

let records t =
  Mutex.lock t.lock;
  let rs = List.rev t.entries in
  Mutex.unlock t.lock;
  rs

type summary = {
  jobs : int;
  total : int;
  ran : int;
  cached : int;
  replayed : int;
  retried : int;
  failed : int;
  wall_s : float;
  busy_s : float;
  speedup_estimate : float;
  max_queue_depth : int;
  cache : Cache.stats;
  exploration : exploration option;
  server : server option;
}

let summary ~jobs ~cache t =
  let rs = records t in
  let count p = List.length (List.filter p rs) in
  let ran = count (fun (r : record) -> r.outcome = Ran) in
  let cached = count (fun (r : record) -> r.outcome = Cache_hit) in
  let replayed = count (fun (r : record) -> r.outcome = Replayed) in
  let retried = count (fun (r : record) -> r.attempts > 1) in
  let failed =
    count (fun (r : record) -> match r.outcome with Failed _ -> true | _ -> false)
  in
  let busy_s = List.fold_left (fun acc (r : record) -> acc +. r.wall_s) 0. rs in
  let wall_s = t.batch_wall_s in
  let max_queue_depth =
    List.fold_left (fun acc (r : record) -> max acc r.queue_depth) 0 rs
  in
  {
    jobs;
    total = List.length rs;
    ran;
    cached;
    replayed;
    retried;
    failed;
    wall_s;
    busy_s;
    (* Meaningless when nothing actually ran (fully cached batch). *)
    speedup_estimate = (if wall_s > 0. && busy_s > 0. then busy_s /. wall_s else 1.);
    max_queue_depth;
    cache;
    exploration = t.exploration;
    server = t.server;
  }

let render_summary s =
  let b = Buffer.create 512 in
  Buffer.add_string b "--- engine run summary ---\n";
  Buffer.add_string b
    (Printf.sprintf
       "jobs %d | tasks %d (ran %d, cached %d, replayed %d, retried %d, failed %d)\n"
       s.jobs s.total s.ran s.cached s.replayed s.retried s.failed);
  Buffer.add_string b
    (Printf.sprintf "wall %.2fs | busy %.2fs | speedup vs sequential est. %.2fx\n"
       s.wall_s s.busy_s s.speedup_estimate);
  Buffer.add_string b
    (Printf.sprintf
       "cache: %d hits, %d misses, %d stores, %d errors (%d verify failures), %d pruned | max queue depth %d"
       s.cache.Cache.hits s.cache.Cache.misses s.cache.Cache.stores
       s.cache.Cache.errors s.cache.Cache.verify_failures s.cache.Cache.pruned
       s.max_queue_depth);
  (match s.exploration with
  | None -> ()
  | Some e ->
      Buffer.add_string b
        (Printf.sprintf
           "\nexploration: %d executions (%d consistent, %d pruned subtrees, %d revisits, \
            %d symmetry skips) in %.2fs"
           e.explored e.consistent e.pruned e.revisits e.symmetry_skips e.explore_wall_s));
  (match s.server with
  | None -> ()
  | Some sv ->
      Buffer.add_string b
        (Printf.sprintf
           "\nserver: %d requests (%d ok, %d errors, %d overloaded) from %d clients | %d \
            computed, %d cache, %d journal, %d deduped"
           sv.requests sv.ok sv.errors sv.overloaded sv.clients sv.computed
           sv.cache_hits sv.journal_hits sv.dedup_joined);
      if sv.deadline_exceeded > 0 || sv.executor_recycles > 0 || sv.client_retries > 0
      then
        Buffer.add_string b
          (Printf.sprintf
             "\nserver faults: %d deadline exceeded, %d executors recycled, %d client retries"
             sv.deadline_exceeded sv.executor_recycles sv.client_retries);
      let mean total count = if count = 0 then 0. else total /. float_of_int count in
      Buffer.add_string b
        (Printf.sprintf
           "\nserver latency: hits mean %.0fus max %.0fus | compute mean %.1fms max %.1fms \
            | peak pending %d, peak client queue %d"
           (1e6 *. mean sv.hit_wall_total_s (sv.cache_hits + sv.journal_hits + sv.dedup_joined))
           (1e6 *. sv.hit_wall_max_s)
           (1e3 *. mean sv.compute_wall_total_s sv.computed)
           (1e3 *. sv.compute_wall_max_s) sv.max_pending sv.max_client_queue));
  Buffer.contents b

(* Minimal JSON emission: only strings, numbers and the two shapes
   below are ever produced, so a purpose-built printer beats pulling
   in a dependency. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let outcome_json = function
  | Ran -> Printf.sprintf {|"ran"|}
  | Cache_hit -> Printf.sprintf {|"cached"|}
  | Replayed -> Printf.sprintf {|"replayed"|}
  | Failed msg -> Printf.sprintf {|{"failed": "%s"}|} (json_escape msg)

(* Bumped whenever the shape of this JSON changes, so downstream
   parsers of telemetry dumps can dispatch on it.  v3 added the
   "exploration" object (candidate-execution search counters); v4 the
   "server" object (served-daemon request counters); v5 the failure-
   containment counters (cache "verify_failures", server
   "deadline_exceeded" / "executor_recycles" / "client_retries");
   v6 the per-engine exploration counters ("revisits" and
   "symmetry_skips" among them); v7 keeps only the counters of the one
   remaining engine ("explored", "pruned", "consistent", "revisits",
   "symmetry_skips"). *)
let schema_version = 7

let to_json s rs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" s.jobs);
  Buffer.add_string b (Printf.sprintf "  \"tasks_total\": %d,\n" s.total);
  Buffer.add_string b (Printf.sprintf "  \"tasks_ran\": %d,\n" s.ran);
  Buffer.add_string b (Printf.sprintf "  \"tasks_cached\": %d,\n" s.cached);
  Buffer.add_string b (Printf.sprintf "  \"tasks_replayed\": %d,\n" s.replayed);
  Buffer.add_string b (Printf.sprintf "  \"tasks_retried\": %d,\n" s.retried);
  Buffer.add_string b (Printf.sprintf "  \"tasks_failed\": %d,\n" s.failed);
  Buffer.add_string b (Printf.sprintf "  \"wall_s\": %s,\n" (json_float s.wall_s));
  Buffer.add_string b (Printf.sprintf "  \"busy_s\": %s,\n" (json_float s.busy_s));
  Buffer.add_string b
    (Printf.sprintf "  \"speedup_estimate\": %s,\n" (json_float s.speedup_estimate));
  Buffer.add_string b (Printf.sprintf "  \"max_queue_depth\": %d,\n" s.max_queue_depth);
  Buffer.add_string b
    (Printf.sprintf
       "  \"cache\": {\"hits\": %d, \"misses\": %d, \"stores\": %d, \"errors\": %d, \"verify_failures\": %d, \"pruned\": %d},\n"
       s.cache.Cache.hits s.cache.Cache.misses s.cache.Cache.stores s.cache.Cache.errors
       s.cache.Cache.verify_failures s.cache.Cache.pruned);
  (match s.exploration with
  | None -> Buffer.add_string b "  \"exploration\": null,\n"
  | Some e ->
      Buffer.add_string b
        (Printf.sprintf
           "  \"exploration\": {\"explored\": %d, \"pruned\": %d, \"consistent\": %d, \"revisits\": %d, \"symmetry_skips\": %d, \"wall_s\": %s},\n"
           e.explored e.pruned e.consistent e.revisits e.symmetry_skips
           (json_float e.explore_wall_s)));
  (match s.server with
  | None -> Buffer.add_string b "  \"server\": null,\n"
  | Some sv ->
      Buffer.add_string b
        (Printf.sprintf
           "  \"server\": {\"requests\": %d, \"ok\": %d, \"errors\": %d, \"overloaded\": \
            %d, \"computed\": %d, \"cache_hits\": %d, \"journal_hits\": %d, \
            \"dedup_joined\": %d, \"streamed_items\": %d, \"clients\": %d, \
            \"hit_wall_total_s\": %s, \"hit_wall_max_s\": %s, \"compute_wall_total_s\": \
            %s, \"compute_wall_max_s\": %s, \"max_pending\": %d, \"max_client_queue\": \
            %d, \"deadline_exceeded\": %d, \"executor_recycles\": %d, \
            \"client_retries\": %d},\n"
           sv.requests sv.ok sv.errors sv.overloaded sv.computed sv.cache_hits
           sv.journal_hits sv.dedup_joined sv.streamed_items sv.clients
           (json_float sv.hit_wall_total_s) (json_float sv.hit_wall_max_s)
           (json_float sv.compute_wall_total_s) (json_float sv.compute_wall_max_s)
           sv.max_pending sv.max_client_queue sv.deadline_exceeded
           sv.executor_recycles sv.client_retries));
  Buffer.add_string b "  \"tasks\": [\n";
  let n = List.length rs in
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"label\": \"%s\", \"wall_s\": %s, \"queue_depth\": %d, \"attempts\": %d, \"outcome\": %s}%s\n"
           (json_escape r.label) (json_float r.wall_s) r.queue_depth r.attempts
           (outcome_json r.outcome)
           (if i = n - 1 then "" else ",")))
    rs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write_json ~path s rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json s rs))
