(* served: a fresh [wmm_bench serve] daemon on an empty cache, driven
   over its wire protocol by two closed-loop connections.  The stream
   asks for every bound-6 ARMv8 program five times (certified,
   exhaustive, under ARMv8) in a seeded order, so each program is one
   miss and four hits.  Checks run after the stream, untimed: every
   answer is [ok], every miss's certificate passes the checker and
   claims what the verdict says, every hit is byte-identical to the
   first answer for its program. *)

open Wmm_isa
open Common
module Json = Wmm_served.Json
module Client = Wmm_served.Client

let connections = 2

type daemon = { pid : int; dir : string; socket : string }

let live : daemon list ref = ref []

let wmm_bench () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/wmm_bench.exe"

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  rm_rf d.dir

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

let roundtrip socket line =
  match Client.connect ~socket_path:socket with
  | Error e -> Error e
  | Ok cl ->
      let r = Client.roundtrip cl line in
      Client.close cl;
      r

let final_frame frames =
  match List.rev frames with
  | last :: _ -> Result.value (Json.parse last) ~default:Json.Null
  | [] -> Json.Null

(* Spawn a daemon and wait until it answers a ping. *)
let spawn c n =
  let exe = wmm_bench () in
  if not (Sys.file_exists exe) then failwith ("served: no daemon binary at " ^ exe);
  let dir = Filename.concat c.scratch (Printf.sprintf "served-%d" n) in
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache";
        "--run-id"; "ladder"; "--jobs"; "2"; "--executors"; "2";
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; dir; socket } in
  live := d :: !live;
  let give_up = now_s () +. 60. in
  let rec wait () =
    let pong =
      Sys.file_exists socket
      && match roundtrip socket {|{"op":"ping"}|} with
         | Ok frames -> Json.bool_member "pong" (final_frame frames) = Some true
         | Error _ -> false
    in
    if not pong then begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          live := List.filter (fun x -> x.pid <> pid) !live;
          failwith "served: the daemon exited during start-up");
      if now_s () > give_up then (kill d; failwith "served: the daemon never answered a ping");
      Thread.delay 0.002;
      wait ()
    end
  in
  wait ();
  d

let stop d =
  match roundtrip d.socket {|{"op":"shutdown"}|} with
  | Ok _ -> reap d
  | Error _ -> kill d

type state = {
  lines : string array;  (** request i *)
  program : int array;  (** the program request i asks about *)
  programs : int;
  generated : int;
  mutable daemon : daemon;
}

(* How many program slots after its miss each of a program's four hits
   comes.  Slot j sends the miss of program j, then the hits of
   programs j - 5, j - 17, ...: every stretch of the stream away from
   its ends holds one miss per four hits, so each block of a run sees
   the same mix. *)
let lags = [ 5; 17; 59; 211 ]

let schedule programs =
  List.concat
    (List.init
       (programs + List.fold_left max 0 lags)
       (fun j ->
         (if j < programs then [ j ] else [])
         @ List.filter_map (fun l -> if j - l >= 0 && j - l < programs then Some (j - l) else None) lags))

let setup c =
  let generated, usable = Verdicts.family Arch.Armv8 in
  let a = Array.of_list usable in
  shuffle ~seed:(c.seed * 31337) a;
  let programs = if c.smoke then 27 else Array.length a in
  let texts =
    Array.init programs (fun i -> Wmm_litmus.Parse.to_text ~arch:Arch.Armv8 a.(i).Wmm_synth.Synth.g_test)
  in
  let program = Array.of_list (schedule programs) in
  let lines =
    Array.mapi
      (fun i p ->
        Json.to_string
          (Json.Obj
             [
               ("op", Json.Str "litmus"); ("id", Json.of_int i); ("program", Json.Str texts.(p));
               ("model", Json.Str "arm"); ("mode", Json.Str "exhaustive");
               ("certify", Json.Bool true);
             ]))
      program
  in
  { lines; program; programs; generated; daemon = spawn c 0 }

type pass = {
  wall_s : float;
  answers : (string list, string) result option array;
  lat_ms : float array;
  done_s : float array;
  start : float;
}

(* The stream: each connection, on a domain of its own, pulls the next
   request in stream order and waits for its final frame before
   sending another.  Requests not sent by [deadline] are not sent. *)
let stream st ~deadline =
  let n = Array.length st.lines in
  let answers = Array.make n None and lat_ms = Array.make n 0. and done_s = Array.make n 0. in
  let next = Atomic.make 0 in
  let conn tid () =
    match Client.connect ~socket_path:st.daemon.socket with
    | Error e -> prerr_endline ("ladder: served: connect: " ^ e)
    | Ok cl ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n && now_s () < deadline then begin
            let a = Span.now_ns () in
            let r = Client.roundtrip cl st.lines.(i) in
            let b = Span.now_ns () in
            lat_ms.(i) <- float_of_int (b - a) /. 1e6;
            done_s.(i) <- float_of_int b /. 1e9;
            answers.(i) <- Some r;
            Span.record ~tid ~op:i "served.roundtrip" ~start:a ~stop:b;
            loop ()
          end
        in
        loop ();
        Client.close cl
  in
  settle ();
  let start = now_s () in
  List.iter Domain.join (List.init connections (fun tid -> Domain.spawn (conn tid)));
  let wall_s = now_s () -. start in
  let answered = List.filter (fun i -> answers.(i) <> None) (List.init n Fun.id) in
  { wall_s; answers; lat_ms; done_s = Array.of_list (List.map (Array.get done_s) answered); start }

let check_certificate item =
  match Json.str_member "certificate" item with
  | None ->
      Error
        ("no certificate: "
        ^ Option.value (Json.str_member "certificate_error" item) ~default:"missing")
  | Some s -> (
      match Wmm_cert.Checker.check_string s with
      | Error r -> Error ("certificate rejected: " ^ Wmm_cert.Checker.reason_string r)
      | Ok cert ->
          let claims_allowed =
            match cert.Wmm_cert.Certificate.claim with
            | Wmm_cert.Certificate.Allowed _ -> Some true
            | Wmm_cert.Certificate.Forbidden _ -> Some false
            | Wmm_cert.Certificate.Minimal _ -> None
          in
          if claims_allowed <> Json.bool_member "axiomatic_allowed" item then
            Error "certificate claim differs from the verdict"
          else if Wmm_cert.Axioms.model_name cert.Wmm_cert.Certificate.model <> "ARMv8" then
            Error "certificate is for another model"
          else if Json.bool_member "sound" item <> Some true then
            Error "machine reached a forbidden outcome"
          else Ok ())

(* Untimed checks over every answered request, in stream order: the
   first answer for a program is its miss. *)
let check st t pass =
  let first = Array.make st.programs None in
  Array.iteri
    (fun i answer ->
      match answer with
      | None -> ()
      | Some r ->
          let verdict =
            match r with
            | Error e -> Error ("transport: " ^ e)
            | Ok frames -> (
                let f = final_frame frames in
                match (Json.str_member "status" f, Json.member "item" f) with
                | Some "ok", Some item -> (
                    let text = Json.to_string item in
                    match first.(st.program.(i)) with
                    | Some reference ->
                        if text = reference then Ok ()
                        else Error "hit differs from the first answer"
                    | None ->
                        first.(st.program.(i)) <- Some text;
                        check_certificate item)
                | status, _ ->
                    Error ("status " ^ Option.value status ~default:"missing"))
          in
          op t ~lat_ms:pass.lat_ms.(i) (Result.is_ok verdict) (fun () ->
              Printf.sprintf "request %d: %s" i
                (match verdict with Error m -> m | Ok () -> "")))
    pass.answers

let run c st =
  let t = tally () in
  let pass = stream st ~deadline:(now_s () +. c.seconds) in
  let rss = vm_hwm_mb (string_of_int st.daemon.pid) in
  stop st.daemon;
  check st t pass;
  e2e_report t ~rates:(block_rates pass.done_s ~start:pass.start) ~rss_mb:rss

let stats d =
  match roundtrip d.socket {|{"op":"stats"}|} with
  | Ok frames -> final_frame frames
  | Error _ -> Json.Null

let trace c st =
  let t = tally () in
  let untraced = stream st ~deadline:infinity in
  stop st.daemon;
  check st t untraced;
  st.daemon <- spawn c 1;
  Span.enabled := true;
  let traced = stream st ~deadline:infinity in
  Span.enabled := false;
  let s = stats st.daemon in
  stop st.daemon;
  check st t traced;
  let int name = float_of_int (Option.value (Json.int_member name s) ~default:0) in
  let hits = int "cache_hits" +. int "journal_hits" +. int "dedup_joined" in
  let mean_ms total count = if count > 0. then int total /. 1e3 /. count else 0. in
  layer_report t
    ~counters:
      ([
         ("synth.tests", float_of_int st.generated);
         ("served.computed", int "computed");
         ("served.hits", hits);
         ("served.hit_ms_mean", mean_ms "hit_wall_total_us" hits);
         ("served.compute_ms_mean", mean_ms "compute_wall_total_us" (int "computed"));
         ("served.overloaded", int "overloaded");
       ]
      @ trace_health ~untraced_s:untraced.wall_s ~traced_s:traced.wall_s
          ~covered_s:(covered_s [ "served.roundtrip" ] /. float_of_int connections))
