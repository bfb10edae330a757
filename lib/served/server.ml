module Engine = Wmm_engine.Engine
module Workqueue = Wmm_engine.Workqueue
module Inflight = Wmm_engine.Inflight
module Cache = Wmm_engine.Cache
module Journal = Wmm_engine.Journal
module Telemetry = Wmm_engine.Telemetry

type config = {
  socket_path : string;
  jobs : int;
  cache_dir : string option;
  run_id : string option;
  executors : int;
  queue_bound : int;
  client_queue_bound : int;
  telemetry_out : string option;
  verbose : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 0;
    cache_dir = Some Cache.default_dir;
    run_id = None;
    executors = 4;
    queue_bound = 256;
    client_queue_bound = 64;
    telemetry_out = None;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* Clients.                                                           *)
(* ------------------------------------------------------------------ *)

type work = {
  w_id : Json.t;
  w_req : Protocol.request;
  w_admitted : float;  (* admission wall-clock, for elapsed_ms *)
  w_deadline_ms : int option;  (* as requested, echoed in the frame *)
  w_deadline : float option;  (* absolute; admission + deadline_ms *)
}

type client = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_lock : Mutex.t;
  c_out : string Queue.t;  (* response lines awaiting the writer *)
  c_out_nonempty : Condition.t;
  c_out_nonfull : Condition.t;
  c_out_drained : Condition.t;  (* broadcast whenever c_out empties *)
  c_inbox : work Queue.t;  (* admitted requests awaiting an executor *)
  mutable c_drain_deadline : float option;
      (* set by close_client; the watchdog kills the client past it *)
  mutable c_dead : bool;
  mutable c_closed : bool;  (* fd released; guards against double close *)
}

(* One request being computed right now.  [r_answered] is the
   single-assignment race arbiter between the executor delivering a
   result and the watchdog delivering a deadline frame: whoever flips
   it under [s_lock] owns the reply (and the [pending] decrement);
   the loser drops its side silently. *)
type running = {
  r_client : client;
  r_work : work;
  r_token : Wmm_util.Cancel.t;
  mutable r_answered : bool;
}

(* An executor slot.  The thread currently bound to the slot carries
   the generation it was spawned at; when the watchdog quarantines an
   overrunning executor it bumps [x_gen] and spawns a replacement, so
   the old thread discovers on its next [s_lock] acquisition that it
   has been disowned and exits instead of double-serving. *)
type slot = {
  mutable x_gen : int;
  mutable x_running : running option;
  mutable x_thread : Thread.t option;
}

type t = {
  cfg : config;
  engine : Engine.t;
  pool : Workqueue.t;
  cache : Cache.t;
  journal : Journal.t option;
  inflight : (string * string list) Inflight.t;
  m_lock : Mutex.t;  (* guards [metrics] *)
  metrics : Telemetry.server;
  s_lock : Mutex.t;
  s_ready : Condition.t;  (* work admitted, or stopping *)
  rr : client Queue.t;  (* round-robin: clients with a non-empty inbox *)
  slots : slot array;  (* one per executor *)
  mutable all_clients : client list;
  mutable pending : int;  (* admitted and not yet answered *)
  mutable stopping : bool;
  mutable wd_stop : bool;  (* watchdog shutdown flag; set after clients close *)
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;  (* self-pipe waking the accept loop *)
  stop_w : Unix.file_descr;
}

let log t fmt =
  Printf.ksprintf (fun s -> if t.cfg.verbose then Printf.eprintf "wmm_served: %s\n%!" s) fmt

let with_metrics t f =
  Mutex.lock t.m_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m_lock) (fun () -> f t.metrics)

(* A copy of the counters, for the [stats] op and the telemetry dump. *)
let metrics_copy t = with_metrics t (fun m -> { m with Telemetry.requests = m.requests })

(* Enqueue one response line for a client.  Blocks while the queue is
   at the bound - this is the back-pressure path: a slow reader stalls
   the executor streaming to it, not the whole server (other clients
   have their own queues and executors). *)
let enqueue_out t client line =
  Mutex.lock client.c_lock;
  while Queue.length client.c_out >= t.cfg.client_queue_bound && not client.c_dead do
    Condition.wait client.c_out_nonfull client.c_lock
  done;
  if not client.c_dead then begin
    Queue.push line client.c_out;
    let depth = Queue.length client.c_out in
    with_metrics t (fun m ->
        m.streamed_items <- m.streamed_items + 1;
        if depth > m.max_client_queue then m.max_client_queue <- depth);
    Condition.signal client.c_out_nonempty
  end;
  Mutex.unlock client.c_lock

let mark_dead client =
  Mutex.lock client.c_lock;
  client.c_dead <- true;
  Queue.clear client.c_out;
  Condition.broadcast client.c_out_nonempty;
  Condition.broadcast client.c_out_nonfull;
  Condition.broadcast client.c_out_drained;
  Mutex.unlock client.c_lock

let writer_thread client =
  let rec loop () =
    Mutex.lock client.c_lock;
    while Queue.is_empty client.c_out && not client.c_dead do
      Condition.wait client.c_out_nonempty client.c_lock
    done;
    if client.c_dead then Mutex.unlock client.c_lock
    else begin
      let line = Queue.pop client.c_out in
      Condition.signal client.c_out_nonfull;
      if Queue.is_empty client.c_out then Condition.broadcast client.c_out_drained;
      Mutex.unlock client.c_lock;
      let payload = Bytes.of_string (line ^ "\n") in
      (match
         let rec write_all off =
           if off < Bytes.length payload then
             let n = Unix.write client.c_fd payload off (Bytes.length payload - off) in
             write_all (off + n)
         in
         write_all 0
       with
      | () -> ()
      | exception _ -> mark_dead client);
      loop ()
    end
  in
  loop ()

(* Wait (bounded) for a client's output queue to drain, then close the
   connection: used on shutdown so the final frames reach the peer.
   The wait parks on [c_out_drained] (the writer broadcasts it when
   the queue empties, [mark_dead] when the client dies); the 5s bound
   is enforced by the watchdog, which kills any client still
   undrained past [c_drain_deadline] — no thread spins. *)
let close_client client =
  Mutex.lock client.c_lock;
  client.c_drain_deadline <- Some (Unix.gettimeofday () +. 5.);
  while not (Queue.is_empty client.c_out || client.c_dead) do
    Condition.wait client.c_out_drained client.c_lock
  done;
  let first = not client.c_closed in
  client.c_closed <- true;
  Mutex.unlock client.c_lock;
  mark_dead client;
  if first then begin
    (try Unix.shutdown client.c_fd Unix.SHUTDOWN_ALL with _ -> ());
    try Unix.close client.c_fd with _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Request execution (runs on executor threads).                      *)
(* ------------------------------------------------------------------ *)

(* The items of a completed request on file in the journal's
   in-memory replay table. *)
let journal_lookup t ~key : string list option =
  Option.bind t.journal (fun j -> Journal.replay j ~key)

(* Resolve a cacheable request to its items, sharing every layer:
   concurrent identical requests join one in-flight computation keyed
   on the content digest; completed ones replay from the journal or
   the cache.  Returns the items plus a provenance tag. *)
let resolve t ~token req =
  let key = Protocol.canonical_key req in
  let digest = Digest.to_hex (Digest.string key) in
  let (origin, items), joined =
    Inflight.run t.inflight ~key:digest (fun () ->
        match journal_lookup t ~key with
        | Some items -> ("journal", items)
        | None -> (
            match Cache.find t.cache ~key with
            | Some items -> ("cache", items)
            | None ->
                (* The request's cancellation token parents every
                   task token in this batch: a fired deadline stops
                   the computation mid-search, and a cancelled run is
                   neither cached nor journaled. *)
                let items =
                  Ops.compute ~engine:(Engine.with_cancel t.engine token) req
                in
                Cache.store t.cache ~key items;
                Option.iter (fun j -> Journal.record_ok j ~key items) t.journal;
                ("computed", items)))
  in
  ((if joined then "inflight" else origin), items)

let stream_items t client ~id ~op ~served_from ~wall_us items =
  match items with
  | [] ->
      enqueue_out t client
        (Protocol.response ~id ~op ~seq:0 ~final:true ~served_from ~wall_us
           [ ("items", Json.of_int 0) ])
  | items ->
      let k = List.length items in
      List.iteri
        (fun i item ->
          let final = i = k - 1 in
          let line =
            if final then
              Protocol.response ~id ~op ~seq:i ~final ~served_from ~wall_us
                [ ("item", Json.Raw item); ("items", Json.of_int k) ]
            else
              Protocol.response ~id ~op ~seq:i ~final [ ("item", Json.Raw item) ]
          in
          enqueue_out t client line)
        items

(* Count one answered request by provenance and stream its items. *)
let deliver t client ~id ~op ~served_from ~t0 items =
  let wall = Unix.gettimeofday () -. t0 in
  with_metrics t (fun m ->
      m.ok <- m.ok + 1;
      match served_from with
      | "computed" ->
          m.computed <- m.computed + 1;
          m.compute_wall_total_s <- m.compute_wall_total_s +. wall;
          if wall > m.compute_wall_max_s then m.compute_wall_max_s <- wall
      | origin ->
          (match origin with
          | "cache" -> m.cache_hits <- m.cache_hits + 1
          | "journal" -> m.journal_hits <- m.journal_hits + 1
          | _ -> m.dedup_joined <- m.dedup_joined + 1);
          m.hit_wall_total_s <- m.hit_wall_total_s +. wall;
          if wall > m.hit_wall_max_s then m.hit_wall_max_s <- wall);
  log t "client %d: %s served from %s in %.1f ms (%d items)" client.c_id op served_from
    (wall *. 1e3) (List.length items);
  stream_items t client ~id ~op ~served_from ~wall_us:(wall *. 1e6) items

let deadline_frame work =
  let elapsed_ms =
    int_of_float (1e3 *. (Unix.gettimeofday () -. work.w_admitted))
  in
  Protocol.deadline_exceeded_response ~id:work.w_id
    ~op:(Protocol.op_name work.w_req)
    ~deadline_ms:(Option.value ~default:0 work.w_deadline_ms)
    ~elapsed_ms

(* Compute one request and deliver the answer — unless the watchdog
   already answered it with a deadline frame, in which case whatever
   came out of the computation is dropped (the cache may still have
   absorbed a late success, which future identical requests enjoy). *)
let execute t running =
  let { r_client = client; r_work = { w_id = id; w_req = req; _ }; r_token = token; _ }
      =
    running
  in
  let op = Protocol.op_name req in
  let t0 = Unix.gettimeofday () in
  let claim_answer () =
    Mutex.lock t.s_lock;
    let mine = not running.r_answered in
    if mine then begin
      running.r_answered <- true;
      t.pending <- t.pending - 1
    end;
    Mutex.unlock t.s_lock;
    mine
  in
  match resolve t ~token req with
  | served_from, items ->
      if claim_answer () then deliver t client ~id ~op ~served_from ~t0 items
  | exception e ->
      if claim_answer () then
        (* A task that died because its own deadline token fired is a
           deadline death, not a generic error: the cooperative
           cancellation usually beats the watchdog's 50ms tick, so
           this branch, not the watchdog, answers most overruns.  The
           watchdog stays the backstop (with quarantine) for tasks
           stuck in code that never polls. *)
        if Wmm_util.Cancel.cancelled running.r_token <> None then begin
          with_metrics t (fun m ->
              m.deadline_exceeded <- m.deadline_exceeded + 1);
          log t "client %d: %s cancelled at deadline" client.c_id op;
          enqueue_out t client (deadline_frame running.r_work)
        end
        else begin
          let msg = match e with Failure m -> m | e -> Printexc.to_string e in
          with_metrics t (fun m -> m.request_errors <- m.request_errors + 1);
          log t "client %d: %s failed: %s" client.c_id op msg;
          enqueue_out t client (Protocol.error_response ~id ~op msg)
        end

let rec executor_loop t slot_idx my_gen =
  Mutex.lock t.s_lock;
  let slot = t.slots.(slot_idx) in
  if slot.x_gen <> my_gen then
    (* Quarantined by the watchdog while we were computing: a
       replacement already owns this slot. *)
    Mutex.unlock t.s_lock
  else if Queue.is_empty t.rr && not t.stopping then begin
    Condition.wait t.s_ready t.s_lock;
    Mutex.unlock t.s_lock;
    executor_loop t slot_idx my_gen
  end
  else if Queue.is_empty t.rr then (* stopping and drained *)
    Mutex.unlock t.s_lock
  else begin
    (* Round-robin fairness: take one request from the head client,
       then rotate it to the back if it still has work queued. *)
    let client = Queue.pop t.rr in
    match Queue.pop client.c_inbox with
    | exception Queue.Empty ->
        (* The watchdog expired everything this client had queued. *)
        Mutex.unlock t.s_lock;
        executor_loop t slot_idx my_gen
    | work -> (
        if not (Queue.is_empty client.c_inbox) then Queue.push client t.rr;
        let now = Unix.gettimeofday () in
        match work.w_deadline with
        | Some d when now > d ->
            (* Expired while queued: answer without computing. *)
            t.pending <- t.pending - 1;
            with_metrics t (fun m ->
                m.deadline_exceeded <- m.deadline_exceeded + 1);
            Mutex.unlock t.s_lock;
            enqueue_out t client (deadline_frame work);
            executor_loop t slot_idx my_gen
        | _ ->
            let token =
              match work.w_deadline with
              | None -> Wmm_util.Cancel.never
              | Some d -> Wmm_util.Cancel.create ~deadline:d ()
            in
            let running =
              { r_client = client; r_work = work; r_token = token;
                r_answered = false }
            in
            slot.x_running <- Some running;
            Mutex.unlock t.s_lock;
            (try execute t running
             with e -> log t "executor: uncaught %s" (Printexc.to_string e));
            Mutex.lock t.s_lock;
            let still_mine = slot.x_gen = my_gen in
            if still_mine then slot.x_running <- None;
            Mutex.unlock t.s_lock;
            if still_mine then executor_loop t slot_idx my_gen)
  end

(* The watchdog: a ~50ms tick that (1) answers and quarantines
   executors whose running request overran its deadline, spawning a
   replacement so the pool never shrinks; (2) answers queued requests
   whose deadline passed before any executor picked them up; (3)
   kills clients that failed to drain within their close deadline, so
   graceful shutdown is bounded without any thread busy-polling. *)
let watchdog_thread t =
  let rec loop () =
    Thread.delay 0.05;
    Mutex.lock t.s_lock;
    if t.wd_stop then Mutex.unlock t.s_lock
    else begin
      let now = Unix.gettimeofday () in
      let replies = ref [] in
      (* (1) overrunning executors *)
      Array.iteri
        (fun i slot ->
          match slot.x_running with
          | Some r
            when (not r.r_answered)
                 && (match r.r_work.w_deadline with
                    | Some d -> now > d
                    | None -> false) ->
              r.r_answered <- true;
              t.pending <- t.pending - 1;
              Wmm_util.Cancel.cancel r.r_token ~reason:"deadline";
              slot.x_gen <- slot.x_gen + 1;
              slot.x_running <- None;
              let gen = slot.x_gen in
              slot.x_thread <-
                Some (Thread.create (fun () -> executor_loop t i gen) ());
              with_metrics t (fun m ->
                  m.deadline_exceeded <- m.deadline_exceeded + 1;
                  m.executor_recycles <- m.executor_recycles + 1);
              replies := (r.r_client, deadline_frame r.r_work) :: !replies
          | _ -> ())
        t.slots;
      (* (2) requests that expired while still queued *)
      List.iter
        (fun client ->
          if not (Queue.is_empty client.c_inbox) then begin
            let keep = Queue.create () in
            Queue.iter
              (fun work ->
                match work.w_deadline with
                | Some d when now > d ->
                    t.pending <- t.pending - 1;
                    with_metrics t (fun m ->
                        m.deadline_exceeded <- m.deadline_exceeded + 1);
                    replies := (client, deadline_frame work) :: !replies
                | _ -> Queue.push work keep)
              client.c_inbox;
            Queue.clear client.c_inbox;
            Queue.transfer keep client.c_inbox
          end)
        t.all_clients;
      (* (3) clients stuck draining past their close deadline *)
      let stuck =
        List.filter
          (fun client ->
            Mutex.lock client.c_lock;
            let s =
              (not client.c_dead)
              && (match client.c_drain_deadline with
                 | Some d -> now > d
                 | None -> false)
            in
            Mutex.unlock client.c_lock;
            s)
          t.all_clients
      in
      Mutex.unlock t.s_lock;
      List.iter (fun (client, line) -> enqueue_out t client line) !replies;
      List.iter mark_dead stuck;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Control requests (answered inline by the reader thread; they skip  *)
(* admission so a saturated server still answers ping and stats).     *)
(* ------------------------------------------------------------------ *)

let cache_stats_payload t =
  let s = Cache.stats t.cache in
  let disk =
    match Cache.disk_usage t.cache with
    | Some (files, bytes) ->
        [ ("disk_files", Json.of_int files); ("disk_bytes", Json.of_int bytes) ]
    | None -> []
  in
  [
    ("enabled", Json.Bool (Cache.enabled t.cache));
    ("hits", Json.of_int s.Cache.hits);
    ("misses", Json.of_int s.Cache.misses);
    ("stores", Json.of_int s.Cache.stores);
    ("cache_errors", Json.of_int s.Cache.errors);
    ("verify_failures", Json.of_int s.Cache.verify_failures);
    ("pruned", Json.of_int s.Cache.pruned);
  ]
  @ disk

let stats_payload t =
  let counters = Telemetry.server_fields (metrics_copy t) in
  Mutex.lock t.s_lock;
  let pending = t.pending in
  Mutex.unlock t.s_lock;
  counters
  @ [
      ("pending", Json.of_int pending);
      ("jobs", Json.of_int (Workqueue.jobs t.pool));
      ("pool_depth", Json.of_int (Workqueue.depth t.pool));
      ("pool_submitted", Json.of_int (Workqueue.submitted t.pool));
      ( "models",
        Json.Arr
          (List.map
             (fun s -> Json.Str s)
             Wmm_registry.Registry.model_wire_names) );
    ]

let request_shutdown t =
  Mutex.lock t.s_lock;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.s_ready;
    (* Wake the accept loop's select. *)
    ignore (try Unix.write t.stop_w (Bytes.of_string "x") 0 1 with _ -> 0)
  end;
  Mutex.unlock t.s_lock

(* Derived back-off hint for shed clients: roughly how long until an
   executor should come free, estimated as the current backlog spread
   over the executor pool at the recent mean compute latency.  A cold
   server (nothing computed yet) guesses 50ms/task.  Clamped so a
   burst of cheap work never says "come back now" and a pile of
   pathological work never says "come back next week".  Caller holds
   [s_lock] (for [pending]); s_lock -> m_lock nesting is this
   module's lock order. *)
let suggested_retry_after_ms t =
  let pending = t.pending in
  let computed, total_s =
    with_metrics t (fun m -> (m.computed, m.compute_wall_total_s))
  in
  let mean_ms =
    if computed = 0 then 50. else 1e3 *. total_s /. float_of_int computed
  in
  let est =
    mean_ms *. float_of_int (pending + 1)
    /. float_of_int (max 1 t.cfg.executors)
  in
  int_of_float (Float.max 25. (Float.min 10_000. est))

let is_stopping t =
  Mutex.lock t.s_lock;
  let s = t.stopping in
  Mutex.unlock t.s_lock;
  s

(* Admit a request for an executor, or shed it when the queue is full
   or the daemon is stopping. *)
let admit t client ~id ~op request ~deadline_ms =
  Mutex.lock t.s_lock;
  if t.stopping || t.pending >= t.cfg.queue_bound then begin
    let retry_after_ms = suggested_retry_after_ms t in
    Mutex.unlock t.s_lock;
    with_metrics t (fun m -> m.overloaded <- m.overloaded + 1);
    log t "client %d: %s shed (queue full, retry in %dms)" client.c_id op retry_after_ms;
    enqueue_out t client (Protocol.overloaded_response ~id ~op ~retry_after_ms)
  end
  else begin
    t.pending <- t.pending + 1;
    with_metrics t (fun m ->
        if t.pending > m.max_pending then m.max_pending <- t.pending);
    let now = Unix.gettimeofday () in
    let work =
      {
        w_id = id;
        w_req = request;
        w_admitted = now;
        w_deadline_ms = deadline_ms;
        w_deadline = Option.map (fun ms -> now +. (float_of_int ms /. 1e3)) deadline_ms;
      }
    in
    let was_empty = Queue.is_empty client.c_inbox in
    Queue.push work client.c_inbox;
    if was_empty then Queue.push client t.rr;
    Condition.signal t.s_ready;
    Mutex.unlock t.s_lock
  end

(* One parsed request from a client's reader thread. *)
let handle_request t client envelope =
  let { Protocol.req_id = id; request; deadline_ms; retry } = envelope in
  let op = Protocol.op_name request in
  with_metrics t (fun m ->
      m.requests <- m.requests + 1;
      if retry > 0 then m.client_retries <- m.client_retries + 1);
  let reply payload =
    with_metrics t (fun m -> m.ok <- m.ok + 1);
    enqueue_out t client (Protocol.response ~id ~op ~seq:0 ~final:true payload)
  in
  match request with
  | Protocol.Ping -> reply [ ("pong", Json.Bool true) ]
  | Protocol.Cache_stats -> reply (cache_stats_payload t)
  | Protocol.Stats -> reply (stats_payload t)
  | Protocol.Shutdown ->
      reply [ ("stopping", Json.Bool true) ];
      request_shutdown t
  | Protocol.Litmus _ | Protocol.Analyze _ | Protocol.Conform _ | Protocol.Lang _ -> (
      let t0 = Unix.gettimeofday () in
      (* A request the journal already answered is served right here:
         no admission, no queue slot, no executor hand-off.  Misses,
         cache-only hits (disk I/O stays off this thread), joins of
         in-flight work and a stopping daemon take the executor path. *)
      match
        if is_stopping t then None
        else journal_lookup t ~key:(Protocol.canonical_key request)
      with
      | Some items -> deliver t client ~id ~op ~served_from:"journal" ~t0 items
      | None -> admit t client ~id ~op request ~deadline_ms)

let handle_line t client line =
  if String.trim line <> "" then
    match Json.parse line with
    | Error e ->
        with_metrics t (fun m ->
            m.requests <- m.requests + 1;
            m.request_errors <- m.request_errors + 1);
        enqueue_out t client (Protocol.error_response ~id:Json.Null ~op:"?" e)
    | Ok v -> (
        match Protocol.parse_request v with
        | Error e ->
            let id = Option.value ~default:Json.Null (Json.member "id" v) in
            let op = Option.value ~default:"?" (Json.str_member "op" v) in
            with_metrics t (fun m ->
                m.requests <- m.requests + 1;
                m.request_errors <- m.request_errors + 1);
            enqueue_out t client (Protocol.error_response ~id ~op e)
        | Ok envelope -> handle_request t client envelope)

let reader_thread t client =
  let ic = Unix.in_channel_of_descr client.c_fd in
  (try
     while not client.c_dead do
       handle_line t client (input_line ic)
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  (* EOF: let queued responses flush, then drop the connection.  Work
     already admitted for this client still executes (its results are
     cached for the next asker); frames to a dead client are dropped
     at enqueue. *)
  close_client client

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                         *)
(* ------------------------------------------------------------------ *)

let spawn_client t fd =
  let client =
    Mutex.lock t.s_lock;
    let id = with_metrics t (fun m ->
        m.clients <- m.clients + 1;
        m.clients)
    in
    let client =
      {
        c_id = id;
        c_fd = fd;
        c_lock = Mutex.create ();
        c_out = Queue.create ();
        c_out_nonempty = Condition.create ();
        c_out_nonfull = Condition.create ();
        c_out_drained = Condition.create ();
        c_inbox = Queue.create ();
        c_drain_deadline = None;
        c_dead = false;
        c_closed = false;
      }
    in
    t.all_clients <- client :: t.all_clients;
    Mutex.unlock t.s_lock;
    client
  in
  log t "client %d: connected" client.c_id;
  ignore (Thread.create (fun () -> writer_thread client) ());
  ignore (Thread.create (fun () -> reader_thread t client) ())

let accept_loop t =
  while not (is_stopping t) do
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.mem t.listen_fd ready && not (is_stopping t) then (
          match Unix.accept t.listen_fd with
          | fd, _ -> spawn_client t fd
          | exception Unix.Unix_error _ -> ())
  done

let serve cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception _ -> ());
  let cache =
    match cfg.cache_dir with
    | None -> Cache.disabled
    | Some dir -> Cache.create ~dir ()
  in
  let journal =
    match cfg.cache_dir with
    | None -> None
    | Some dir ->
        let run_id =
          match cfg.run_id with
          | Some id -> id
          | None -> Journal.derived_run_id ~tag:"served" [ Cache.code_version () ]
        in
        let j = Journal.open_ ~dir:(Filename.concat dir "journal") ~run_id () in
        Printf.eprintf "wmm_served: journal run id %s (%d completed tasks on file)\n%!"
          run_id (Journal.loaded j);
        Some j
  in
  let pool = Workqueue.create ~jobs:cfg.jobs () in
  let engine = Engine.create ~pool ~cache ?journal () in
  (* Bind, replacing a stale socket file from a killed daemon. *)
  (try if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path
   with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      cfg;
      engine;
      pool;
      cache;
      journal;
      inflight = Inflight.create ();
      m_lock = Mutex.create ();
      metrics = Telemetry.create_server ();
      s_lock = Mutex.create ();
      s_ready = Condition.create ();
      rr = Queue.create ();
      slots =
        Array.init (max 1 cfg.executors) (fun _ ->
            { x_gen = 0; x_running = None; x_thread = None });
      all_clients = [];
      pending = 0;
      stopping = false;
      wd_stop = false;
      listen_fd;
      stop_r;
      stop_w;
    }
  in
  Printf.eprintf "wmm_served: listening on %s (%d worker domains, %d executors)\n%!"
    cfg.socket_path (Workqueue.jobs pool) cfg.executors;
  Array.iteri
    (fun i slot ->
      slot.x_thread <- Some (Thread.create (fun () -> executor_loop t i 0) ()))
    t.slots;
  let watchdog = Thread.create (fun () -> watchdog_thread t) () in
  accept_loop t;
  (* Shutdown: stop accepting, drain admitted work, flush clients,
     then stop the watchdog (it enforces the client-drain bound, so
     it must outlive close_client).  Executor slots may be handed to
     replacement threads by the watchdog mid-join, so re-snapshot
     until no slot holds a live thread.  Threads disowned by a
     recycle exit on their own (their computation is cancelled) and
     are not joined. *)
  let rec join_executors () =
    Mutex.lock t.s_lock;
    let live =
      Array.to_list t.slots
      |> List.filter_map (fun slot ->
             Option.map (fun th -> (slot, th)) slot.x_thread)
    in
    Mutex.unlock t.s_lock;
    if live <> [] then begin
      List.iter
        (fun (slot, th) ->
          Thread.join th;
          Mutex.lock t.s_lock;
          (match slot.x_thread with
          | Some cur when Thread.id cur = Thread.id th -> slot.x_thread <- None
          | _ -> ());
          Mutex.unlock t.s_lock)
        live;
      join_executors ()
    end
  in
  join_executors ();
  Mutex.lock t.s_lock;
  let clients = t.all_clients in
  Mutex.unlock t.s_lock;
  List.iter close_client clients;
  Mutex.lock t.s_lock;
  t.wd_stop <- true;
  Mutex.unlock t.s_lock;
  Thread.join watchdog;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close stop_r with Unix.Unix_error _ -> ());
  (try Unix.close stop_w with Unix.Unix_error _ -> ());
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  Workqueue.shutdown pool;
  Engine.set_server engine (metrics_copy t);
  Option.iter Journal.close journal;
  prerr_endline (Engine.render_summary engine);
  Option.iter
    (fun path ->
      try Engine.write_telemetry engine path
      with Sys_error msg -> Printf.eprintf "warning: cannot write telemetry: %s\n" msg)
    cfg.telemetry_out
