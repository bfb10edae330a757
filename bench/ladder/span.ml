(* In-memory span recorder for traced runs.

   A span is a named interval around one call into a layer, recorded
   from the benchmark's side of the call: name, start, end, parent span
   and the op it belongs to.  Spans stay in memory until the run ends;
   [layers] then folds them into per-name self time, call counts and
   durations, and [chrome_events] renders them as Chrome trace events.
   When tracing is off, [with_] is a plain call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (** index of the enclosing span, or -1 *)
  op : int;
  tid : int;
}

let enabled = ref false
let buf : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let lock = Mutex.create ()

let reserve s =
  Mutex.lock lock;
  if !count = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !buf 0 bigger 0 !count;
    buf := bigger
  end;
  let i = !count in
  !buf.(i) <- s;
  incr count;
  Mutex.unlock lock;
  i

(* Nested spans on the main thread: the slot is taken when the span
   opens, so children can name their parent. *)
let with_ ?(op = -1) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; start = now_ns (); stop = 0; parent; op; tid = 0 } in
    stack := reserve s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now_ns ();
        stack := List.tl !stack)
      f
  end

(* A span timed by the caller, for threads other than the main one. *)
let record ~tid ~op name ~start ~stop =
  if !enabled then ignore (reserve { name; start; stop; parent = -1; op; tid })

let all () = Array.sub !buf 0 !count

type layer = { calls : int; self_ns : int; durations_ns : int list }

(* Self time is a span's duration minus the time its direct children
   cover; children of one parent nest on one thread and never overlap,
   so the covered time is the sum of their durations. *)
let layers () =
  let a = all () in
  let child = Array.make (Array.length a) 0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.stop - s.start))
    a;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let d = s.stop - s.start in
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_ns = 0; durations_ns = [] }
      in
      Hashtbl.replace tbl s.name
        { calls = l.calls + 1; self_ns = l.self_ns + d - child.(i); durations_ns = d :: l.durations_ns })
    a;
  tbl

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   event per line so the files of several workloads concatenate. *)
let chrome_events ~pid ~origin_ns =
  let b = Buffer.create 4096 in
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"op\":%d,\"parent\":%d}}\n"
           s.name
           (float_of_int (s.start - origin_ns) /. 1e3)
           (float_of_int (s.stop - s.start) /. 1e3)
           pid s.tid s.op s.parent))
    (all ());
  Buffer.contents b
