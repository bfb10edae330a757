module Json = Wmm_util.Json

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
   hit/compute, and load high-water marks.  The daemon counts into one
   record under its own lock. *)
type server = {
  mutable requests : int;
  mutable ok : int;
  mutable request_errors : int;
  mutable overloaded : int;
  mutable computed : int;
  mutable cache_hits : int;
  mutable journal_hits : int;
  mutable dedup_joined : int;
  mutable streamed_items : int;
  mutable clients : int;
  mutable hit_wall_total_s : float;
  mutable hit_wall_max_s : float;
  mutable compute_wall_total_s : float;
  mutable compute_wall_max_s : float;
  mutable max_pending : int;
  mutable max_client_queue : int;
  mutable deadline_exceeded : int;
  mutable executor_recycles : int;
  mutable client_retries : int;
}

let create_server () =
  { requests = 0; ok = 0; request_errors = 0; overloaded = 0; computed = 0;
    cache_hits = 0; journal_hits = 0; dedup_joined = 0; streamed_items = 0;
    clients = 0; hit_wall_total_s = 0.; hit_wall_max_s = 0.;
    compute_wall_total_s = 0.; compute_wall_max_s = 0.; max_pending = 0;
    max_client_queue = 0; deadline_exceeded = 0; executor_recycles = 0;
    client_retries = 0 }

(* Latencies go out as whole microseconds: the served protocol's
   numbers are integral. *)
let server_fields sv =
  let int = Json.of_int and us s = Json.Num (Float.round (s *. 1e6)) in
  [
    ("requests", int sv.requests);
    ("ok", int sv.ok);
    ("request_errors", int sv.request_errors);
    ("overloaded", int sv.overloaded);
    ("computed", int sv.computed);
    ("cache_hits", int sv.cache_hits);
    ("journal_hits", int sv.journal_hits);
    ("dedup_joined", int sv.dedup_joined);
    ("streamed_items", int sv.streamed_items);
    ("clients", int sv.clients);
    ("hit_wall_total_us", us sv.hit_wall_total_s);
    ("hit_wall_max_us", us sv.hit_wall_max_s);
    ("compute_wall_total_us", us sv.compute_wall_total_s);
    ("compute_wall_max_us", us sv.compute_wall_max_s);
    ("max_pending", int sv.max_pending);
    ("max_client_queue", int sv.max_client_queue);
    ("deadline_exceeded", int sv.deadline_exceeded);
    ("executor_recycles", int sv.executor_recycles);
    ("client_retries", int sv.client_retries);
  ]

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
           sv.requests sv.ok sv.request_errors sv.overloaded sv.clients sv.computed
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

(* Bumped whenever the shape of this JSON changes, so downstream
   parsers of telemetry dumps can dispatch on it.  v3 added the
   "exploration" object (candidate-execution search counters); v4 the
   "server" object (served-daemon request counters); v5 the failure-
   containment counters (cache "verify_failures", server
   "deadline_exceeded" / "executor_recycles" / "client_retries");
   v6 the per-engine exploration counters ("revisits" and
   "symmetry_skips" among them); v7 keeps only the counters of the one
   remaining engine ("explored", "pruned", "consistent", "revisits",
   "symmetry_skips"); v8 gives the "server" object the served [stats]
   op's names and units ("request_errors", latencies as integral
   "*_us"). *)
let schema_version = 8

let to_json s rs =
  let int = Json.of_int and num f = Json.Num f in
  let outcome = function
    | Ran -> Json.Str "ran"
    | Cache_hit -> Json.Str "cached"
    | Replayed -> Json.Str "replayed"
    | Failed msg -> Json.Obj [ ("failed", Json.Str msg) ]
  in
  Json.Obj
    [
      ("schema_version", int schema_version);
      ("jobs", int s.jobs);
      ("tasks_total", int s.total);
      ("tasks_ran", int s.ran);
      ("tasks_cached", int s.cached);
      ("tasks_replayed", int s.replayed);
      ("tasks_retried", int s.retried);
      ("tasks_failed", int s.failed);
      ("wall_s", num s.wall_s);
      ("busy_s", num s.busy_s);
      ("speedup_estimate", num s.speedup_estimate);
      ("max_queue_depth", int s.max_queue_depth);
      ( "cache",
        Json.Obj
          [
            ("hits", int s.cache.Cache.hits);
            ("misses", int s.cache.Cache.misses);
            ("stores", int s.cache.Cache.stores);
            ("errors", int s.cache.Cache.errors);
            ("verify_failures", int s.cache.Cache.verify_failures);
            ("pruned", int s.cache.Cache.pruned);
          ] );
      ( "exploration",
        match s.exploration with
        | None -> Json.Null
        | Some e ->
            Json.Obj
              [
                ("explored", int e.explored);
                ("pruned", int e.pruned);
                ("consistent", int e.consistent);
                ("revisits", int e.revisits);
                ("symmetry_skips", int e.symmetry_skips);
                ("wall_s", num e.explore_wall_s);
              ] );
      ( "server",
        match s.server with None -> Json.Null | Some sv -> Json.Obj (server_fields sv) );
      ( "tasks",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("label", Json.Str r.label);
                   ("wall_s", num r.wall_s);
                   ("queue_depth", int r.queue_depth);
                   ("attempts", int r.attempts);
                   ("outcome", outcome r.outcome);
                 ])
             rs) );
    ]

let write_json ~path s rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json s rs));
      output_char oc '\n')
