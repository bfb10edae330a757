type job = unit -> unit

type t = {
  n_jobs : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable stopped : bool;
  mutable total_submitted : int;
  mutable workers : unit Domain.t array;
}

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a handle = {
  h_lock : Mutex.t;
  h_done : Condition.t;
  mutable state : 'a state;
}

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec next () =
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
          if t.stopped then None
          else begin
            Condition.wait t.nonempty t.lock;
            next ()
          end
    in
    let job = next () in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some job ->
        (* The job's own exception handling lives in the handle (see
           [submit]); nothing a submitted closure does can kill a
           worker. *)
        job ();
        loop ()
  in
  loop ()

let create ?(jobs = 0) () =
  let n_jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  let n_jobs = max 1 n_jobs in
  let t =
    {
      n_jobs;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      total_submitted = 0;
      workers = [||];
    }
  in
  t.workers <- Array.init n_jobs (fun _ -> Domain.spawn (worker t));
  t

let jobs t = t.n_jobs

let depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.queue in
  Mutex.unlock t.lock;
  d

let submitted t =
  Mutex.lock t.lock;
  let n = t.total_submitted in
  Mutex.unlock t.lock;
  n

let submit t f =
  let h = { h_lock = Mutex.create (); h_done = Condition.create (); state = Pending } in
  let job () =
    let result =
      try Done (f ()) with e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock h.h_lock;
    h.state <- result;
    Condition.broadcast h.h_done;
    Mutex.unlock h.h_lock
  in
  Mutex.lock t.lock;
  if t.stopped then begin
    Mutex.unlock t.lock;
    invalid_arg "Workqueue.submit: queue is shut down"
  end;
  Queue.add job t.queue;
  t.total_submitted <- t.total_submitted + 1;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  h

let await h =
  Mutex.lock h.h_lock;
  while h.state = Pending do
    Condition.wait h.h_done h.h_lock
  done;
  let state = h.state in
  Mutex.unlock h.h_lock;
  match state with
  | Pending -> assert false
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt

exception Multiple_failures of string

let () =
  Printexc.register_printer (function
    | Multiple_failures msg -> Some ("Workqueue.Multiple_failures: " ^ msg)
    | _ -> None)

(* One job per worker, not one per task: the jobs claim indices from a
   shared counter, so a batch costs [jobs] submissions whatever its
   size, and a batch whose tasks return at once (a cancelled engine
   batch skips its unstarted tasks) drains without a queue round trip
   per task.  The raise policy: one failure re-raises the original
   exception (original backtrace), several aggregate in index order so
   no cause is silently swallowed. *)
let run_indexed t n f =
  let next = Atomic.make 0 in
  let rec claim failed =
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then failed
    else
      match f i with
      | () -> claim failed
      | exception e -> claim ((i, e, Printexc.get_raw_backtrace ()) :: failed)
  in
  let handles = List.init (min n t.n_jobs) (fun _ -> submit t (fun () -> claim [])) in
  let by_index (i, _, _) (j, _, _) = Int.compare i j in
  match List.sort by_index (List.concat_map await handles) with
  | [] -> ()
  | [ (_, e, bt) ] -> Printexc.raise_with_backtrace e bt
  | (_, e, bt) :: rest ->
      let msg =
        Printf.sprintf "%d tasks failed; first: %s; also: %s"
          (List.length rest + 1) (Printexc.to_string e)
          (String.concat "; " (List.map (fun (_, e, _) -> Printexc.to_string e) rest))
      in
      Printexc.raise_with_backtrace (Multiple_failures msg) bt

let shutdown t =
  Mutex.lock t.lock;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if not was_stopped then Array.iter Domain.join t.workers

let run ~jobs n f =
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    (* Never more workers than tasks. *)
    let wq = create ~jobs:(min jobs n) () in
    Fun.protect ~finally:(fun () -> shutdown wq) (fun () -> run_indexed wq n f)
  end
