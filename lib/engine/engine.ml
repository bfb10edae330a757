type t = {
  jobs : int;
  pool : Workqueue.t option;
  cache : Cache.t;
  soft_deadline_s : float option;
  retries : int;
  backoff_s : float;
  faults : Fault.t;
  journal : Journal.t option;
  telemetry : Telemetry.t;
  cancel : Wmm_util.Cancel.t;
}

type 'a outcome = Computed of 'a | Cached of 'a | Replayed of 'a | Failed of string

let create ?(jobs = 1) ?pool ?(cache = Cache.disabled) ?soft_deadline_s
    ?(retries = 2) ?(backoff_s = 0.05) ?faults ?journal () =
  let jobs =
    match pool with
    | Some wq -> Workqueue.jobs wq
    | None -> if jobs <= 0 then Domain.recommended_domain_count () else jobs
  in
  let faults = match faults with Some f -> f | None -> Fault.ambient () in
  {
    jobs;
    pool;
    cache;
    soft_deadline_s;
    retries = max 0 retries;
    backoff_s = max 0. backoff_s;
    faults;
    journal;
    telemetry = Telemetry.create ();
    cancel = Wmm_util.Cancel.never;
  }

let sequential () = create ()

let jobs t = t.jobs
let cache t = t.cache
let journal t = t.journal

(* Shallow copy sharing every mutable inner structure (telemetry,
   cache handle, pool): batches run through the copy count into the
   same run, but carry the caller's cancellation token.  This is how
   the served daemon scopes one request's deadline without touching
   the engine other requests are using concurrently. *)
let with_cancel t cancel = { t with cancel }

(* One task, full resilience path: journal replay, cache lookup, then
   up to [1 + retries] attempts with capped exponential backoff
   between them.  Only transient exceptions (see {!Fault.transient_exn})
   are retried - retrying a deterministic error from a pure
   computation cannot change the result. *)
let attempt_task t ~token task =
  let key = task.Task.key in
  let max_attempts = 1 + t.retries in
  let rec go attempt =
    match
      Wmm_util.Cancel.check token;
      if Fault.should_fail t.faults ~key ~attempt then
        raise (Fault.Injected (Printf.sprintf "attempt %d of %s" attempt key));
      (* A fresh RNG per attempt: a retried task sees exactly the
         stream its first attempt would have, preserving bit-identical
         output.  The token rides along as the ambient one so deep
         loops (explorer backtracking, machine iteration) can poll it
         without threading it through every signature; [Cancelled] is
         not transient, so a cancelled attempt is never retried. *)
      Wmm_util.Cancel.with_ambient token (fun () ->
          task.Task.run (Task.rng_for key))
    with
    | v -> Ok (v, attempt + 1)
    | exception e when Fault.transient_exn e && attempt + 1 < max_attempts ->
        (* Capped exponential backoff: backoff_s, 2*backoff_s, ... <= 2s. *)
        let delay = Float.min 2. (t.backoff_s *. (2. ** float_of_int attempt)) in
        if delay > 0. then Unix.sleepf delay;
        go (attempt + 1)
    | exception e -> Error (Printexc.to_string e, attempt + 1)
  in
  go 0

let run_all t tasks =
  let n = Array.length tasks in
  let results = Array.make n (Failed "not executed") in
  let started = Atomic.make 0 in
  let batch_start = Unix.gettimeofday () in
  let exec i =
      let task = tasks.(i) in
      let key = task.Task.key in
      let queue_depth = n - Atomic.fetch_and_add started 1 - 1 in
      let record wall_s attempts outcome =
        Telemetry.add t.telemetry
          {
            Telemetry.label = task.Task.label;
            key;
            wall_s;
            queue_depth;
            outcome;
            attempts;
          }
      in
      (* An attempt stopped by the batch's cancellation leaves no
         journal record: the batch raises below and has no answer. *)
      let journal_failed msg =
        if Wmm_util.Cancel.cancelled t.cancel = None then
          Option.iter (fun j -> Journal.record_failed j ~key ~msg) t.journal
      in
      (* Once the batch is cancelled (a served request's deadline), a
         task not yet started is skipped with no journal or cache
         traffic: the batch raises below instead of returning. *)
      if Wmm_util.Cancel.cancelled t.cancel <> None then ()
      else
      match Option.bind t.journal (fun j -> Journal.replay j ~key) with
      | Some v ->
          results.(i) <- Replayed v;
          record 0. 0 Telemetry.Replayed
      | None -> (
          match Cache.find t.cache ~key with
          | Some v ->
              results.(i) <- Cached v;
              record 0. 0 Telemetry.Cache_hit
          | None -> (
              let t0 = Unix.gettimeofday () in
              (* Per-task token: fires at the soft deadline (making it
                 enforceable mid-task, not just post-hoc) and whenever
                 the engine-wide token does (a served request's
                 [deadline_ms], a watchdog recycling an executor). *)
              let token =
                Wmm_util.Cancel.create
                  ?deadline:(Option.map (fun s -> t0 +. s) t.soft_deadline_s)
                  ~parent:t.cancel ()
              in
              match attempt_task t ~token task with
              | Ok (v, attempts) -> (
                  let wall = Unix.gettimeofday () -. t0 in
                  match t.soft_deadline_s with
                  | Some limit when wall > limit ->
                      (* An overrun result must not be published
                         anywhere a later run could reuse it: neither
                         cached nor journaled. *)
                      let msg =
                        Printf.sprintf "exceeded soft deadline (%.2fs > %.2fs)" wall
                          limit
                      in
                      results.(i) <- Failed msg;
                      record wall attempts (Telemetry.Failed msg)
                  | _ ->
                      Cache.store t.cache ~key v;
                      if Fault.should_corrupt t.faults ~key then
                        ignore (Cache.corrupt t.cache ~key);
                      Option.iter (fun j -> Journal.record_ok j ~key v) t.journal;
                      results.(i) <- Computed v;
                      record wall attempts Telemetry.Ran)
              | Error (msg, attempts) ->
                  let wall = Unix.gettimeofday () -. t0 in
                  journal_failed msg;
                  results.(i) <- Failed msg;
                  record wall attempts (Telemetry.Failed msg)
              | exception e ->
                  (* Injected faults that exhaust the retry budget land
                     here (re-raised by attempt_task's last round). *)
                  let wall = Unix.gettimeofday () -. t0 in
                  let msg = Printexc.to_string e in
                  journal_failed msg;
                  results.(i) <- Failed msg;
                  record wall (1 + t.retries) (Telemetry.Failed msg)))
  in
  (* Submission strategy only: [exec] is identical either way, and
     results land by index, so a batch through a shared warm pool is
     bit-identical to a one-shot Workqueue.run of the same tasks.  With a
     pool, even single-task batches go through it: worker domains run
     one task at a time, which is what makes the per-domain ambient
     cancellation token sound when many submitter threads share the
     pool (running inline would stack ambient tokens from concurrent
     threads onto the submitter's one domain). *)
  (match t.pool with
  | Some wq when n >= 1 -> Workqueue.run_indexed wq n exec
  | Some _ | None -> Workqueue.run ~jobs:t.jobs n exec);
  Telemetry.add_batch_wall t.telemetry (Unix.gettimeofday () -. batch_start);
  (* A cancelled batch has no answer: its caller stops here instead of
     reading the failures as results. *)
  Wmm_util.Cancel.check t.cancel;
  results

let run t task = (run_all t [| task |]).(0)

let value = function
  | Computed v | Cached v | Replayed v -> Ok v
  | Failed msg -> Error msg

let get = function
  | Computed v | Cached v | Replayed v -> v
  | Failed msg -> failwith ("engine task failed: " ^ msg)

let set_exploration t e = Telemetry.set_exploration t.telemetry e
let set_server t s = Telemetry.set_server t.telemetry s

let summary t = Telemetry.summary ~jobs:t.jobs ~cache:(Cache.stats t.cache) t.telemetry
let render_summary t = Telemetry.render_summary (summary t)

let write_telemetry t path =
  Telemetry.write_json ~path (summary t) (Telemetry.records t.telemetry)

module Batch = struct
  type 'a t = {
    mutable tasks : 'a Task.t list;  (* reversed *)
    index : (string, int) Hashtbl.t;
    mutable results : 'a outcome array option;
  }

  let create () = { tasks = []; index = Hashtbl.create 64; results = None }

  let add b task =
    let i =
      match Hashtbl.find_opt b.index task.Task.key with
      | Some i -> i
      | None ->
          let i = Hashtbl.length b.index in
          Hashtbl.add b.index task.Task.key i;
          b.tasks <- task :: b.tasks;
          i
    in
    fun () ->
      match b.results with
      | None -> invalid_arg "Engine.Batch: result requested before the batch ran"
      | Some r -> r.(i)

  let run engine b =
    let tasks = Array.of_list (List.rev b.tasks) in
    b.results <- Some (run_all engine tasks)
end
