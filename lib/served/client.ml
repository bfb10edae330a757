type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () ->
      Ok
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          closed = false;
        }
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket_path
           (Unix.error_message err))

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Closing [oc] closes the descriptor both channels share.  Closing
       [ic] too would close that number a second time, and by then
       another thread may have reused it for an unrelated file. *)
    close_out_noerr t.oc
  end

let set_timeout t seconds =
  try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t = try Some (input_line t.ic) with End_of_file | Sys_error _ -> None

let is_final line =
  match Json.parse line with
  | Ok v -> Json.bool_member "final" v <> Some false
  | Error _ -> true

let collect t ~finals_expected =
  let rec go acc finals =
    if finals >= finals_expected then Ok (List.rev acc)
    else
      match recv_line t with
      | None -> Error "connection closed mid-response"
      | Some line -> go (line :: acc) (finals + if is_final line then 1 else 0)
  in
  go [] 0

let roundtrip t line =
  send_line t line;
  collect t ~finals_expected:1

let run_batch t lines =
  List.iter (send_line t) lines;
  collect t ~finals_expected:(List.length lines)

(* ------------------------------------------------------------------ *)
(* Resilient batch driver: capped seeded-jitter retry on overloaded   *)
(* sheds (honouring the server's retry_after_ms hint) and reconnect-  *)
(* and-replay of unanswered requests when the connection drops.       *)
(* ------------------------------------------------------------------ *)

type retry_policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  seed : int;
}

let default_policy =
  { max_attempts = 4; base_delay_s = 0.05; max_delay_s = 2.; seed = 0 }

type batch_outcome = {
  lines : string list;
  retries : int;
  reconnects : int;
  gave_up_overloaded : string list;
}

type pending = {
  p_fields : (string * Json.t) list option;  (* None: unparseable, sent raw *)
  p_raw : string;
  p_key : string;  (* serialized id, the demux key *)
  mutable p_attempts : int;  (* completed sends *)
  mutable p_frames : string list;  (* reversed arrival order *)
  mutable p_state : [ `Waiting | `Answered | `Gave_up ];
}

let id_key id = Json.to_string id

(* Requests the caller sent without an id get one injected: without
   it, replaying "the unanswered requests" after a dropped connection
   would have nothing to demultiplex responses by. *)
let make_pending i line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      let fields, id =
        match List.assoc_opt "id" fields with
        | Some id -> (fields, id)
        | None ->
            let id = Json.Str (Printf.sprintf "q%d" i) in
            (fields @ [ ("id", id) ], id)
      in
      { p_fields = Some fields; p_raw = line; p_key = id_key id;
        p_attempts = 0; p_frames = []; p_state = `Waiting }
  | Ok _ | Error _ ->
      (* Sent verbatim; the server's error reply carries id null. *)
      { p_fields = None; p_raw = line; p_key = "null"; p_attempts = 0;
        p_frames = []; p_state = `Waiting }

let render_pending p =
  match p.p_fields with
  | None -> p.p_raw
  | Some fields ->
      let fields = List.remove_assoc "retry" fields in
      let fields =
        if p.p_attempts > 0 then
          fields @ [ ("retry", Json.of_int p.p_attempts) ]
        else fields
      in
      Json.to_string (Json.Obj fields)

let run_resilient ~socket_path ?(policy = default_policy) lines =
  let rng = Wmm_util.Rng.create policy.seed in
  (* Multiplicative jitter in [0.75, 1.25): deterministic for a fixed
     seed, yet a fleet of shed clients with different seeds fans back
     in instead of stampeding on the same tick. *)
  let jitter () = 0.75 +. Wmm_util.Rng.float rng 0.5 in
  let backoff attempt =
    Float.min policy.max_delay_s
      (policy.base_delay_s *. (2. ** float_of_int attempt))
  in
  let pendings = List.mapi make_pending lines in
  let retries = ref 0 and reconnects = ref 0 in
  let conn : t option ref = ref None in
  let drop_conn () =
    (match !conn with Some c -> close c | None -> ());
    conn := None
  in
  let ensure_conn round =
    match !conn with
    | Some c -> Ok c
    | None ->
        if round > 0 then incr reconnects;
        let rec go attempt last_err =
          if attempt >= policy.max_attempts then
            Error
              (Printf.sprintf "cannot connect to %s after %d attempts: %s"
                 socket_path policy.max_attempts last_err)
          else
            match connect ~socket_path with
            | Ok c ->
                conn := Some c;
                Ok c
            | Error e ->
                Unix.sleepf (backoff attempt *. jitter ());
                go (attempt + 1) e
        in
        go 0 "not attempted"
  in
  let waiting () = List.filter (fun p -> p.p_state = `Waiting) pendings in
  let find_waiting key =
    List.find_opt (fun p -> p.p_state = `Waiting && p.p_key = key) pendings
  in
  let rec round n =
    match waiting () with
    | [] ->
        drop_conn ();
        Ok
          {
            lines = List.concat_map (fun p -> List.rev p.p_frames) pendings;
            retries = !retries;
            reconnects = !reconnects;
            gave_up_overloaded =
              List.filter_map
                (fun p -> if p.p_state = `Gave_up then Some p.p_key else None)
                pendings;
          }
    | ws -> (
        (* A request that survived max_attempts sends and still has no
           answer (connections keep dying under it) is a transport
           failure, not something to spin on forever. *)
        match
          List.find_opt (fun p -> p.p_attempts >= policy.max_attempts) ws
        with
        | Some p ->
            drop_conn ();
            Error
              (Printf.sprintf
                 "request %s unanswered after %d attempts (connection kept \
                  dropping)"
                 p.p_key p.p_attempts)
        | None -> (
            match ensure_conn n with
            | Error e -> Error e
            | Ok c ->
                List.iter
                  (fun p ->
                    (* A replayed request restreams from scratch:
                       partial frames of the aborted attempt must go. *)
                    p.p_frames <- [];
                    if p.p_attempts > 0 then incr retries;
                    let line = render_pending p in
                    p.p_attempts <- p.p_attempts + 1;
                    match send_line c line with
                    | () -> ()
                    | exception _ -> () (* EOF surfaces in the recv loop *))
                  ws;
                let in_flight = ref (List.length ws) in
                let eof = ref false in
                let max_hint_s = ref 0. in
                let sheds = ref 0 in
                while !in_flight > 0 && not !eof do
                  match recv_line c with
                  | None -> eof := true
                  | Some frame -> (
                      let v = Json.parse frame in
                      let key =
                        match v with
                        | Ok obj ->
                            id_key
                              (Option.value ~default:Json.Null
                                 (Json.member "id" obj))
                        | Error _ -> "null"
                      in
                      match find_waiting key with
                      | None -> () (* stale frame of an aborted attempt *)
                      | Some p -> (
                          let status =
                            match v with
                            | Ok obj -> Json.str_member "status" obj
                            | Error _ -> None
                          in
                          match status with
                          | Some "overloaded" ->
                              decr in_flight;
                              incr sheds;
                              let hint_ms =
                                match v with
                                | Ok obj -> (
                                    match Json.member "retry_after_ms" obj with
                                    | Some (Json.Num f) -> f
                                    | _ -> 0.)
                                | Error _ -> 0.
                              in
                              max_hint_s :=
                                Float.max !max_hint_s (hint_ms /. 1e3);
                              if p.p_attempts >= policy.max_attempts then begin
                                p.p_frames <- [ frame ];
                                p.p_state <- `Gave_up
                              end
                          | _ ->
                              p.p_frames <- frame :: p.p_frames;
                              if is_final frame then begin
                                p.p_state <- `Answered;
                                decr in_flight
                              end))
                done;
                if !eof then drop_conn ();
                (if !sheds > 0 then
                   let d =
                     Float.max !max_hint_s (backoff n) *. jitter ()
                   in
                   Unix.sleepf (Float.min policy.max_delay_s d)
                 else if !eof && waiting () <> [] then
                   Unix.sleepf (backoff n *. jitter ()));
                round (n + 1)))
  in
  round 0
