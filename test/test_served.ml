(* The exploration daemon: protocol parsing, canonical keys, and a
   real in-process server exercised over its Unix socket - verdicts
   bit-identical to the one-shot path, in-flight dedup, overload
   shedding, and journal-warm restart. *)

let () = Unix.putenv "WMM_FAST" "1"

open Wmm_served
open Wmm_litmus
module Json = Wmm_util.Json

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wmm_served_%d_%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Wmm_util.Fs.rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* JSON *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "JSON %S rejected: %s" s e

let test_json_roundtrip () =
  let cases =
    [
      {|null|};
      {|true|};
      {|42|};
      {|-3.5|};
      {|"he\"llo\n"|};
      {|[1, 2, [], {"a": false}]|};
      {|{"op": "litmus", "tests": ["SB", "MP"], "n": 7}|};
    ]
  in
  List.iter
    (fun s ->
      let v = parse_ok s in
      let v' = parse_ok (Json.to_string v) in
      if v <> v' then Alcotest.failf "round trip changed %S" s)
    cases;
  (match Json.parse {|{"a": 1} trailing|} with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error e -> Alcotest.(check bool) "error locates the byte" true (e <> ""));
  (match Json.parse {|{"a": }|} with
  | Ok _ -> Alcotest.fail "malformed object accepted"
  | Error _ -> ());
  let v = parse_ok {|{"s": "x", "n": 3, "b": true, "l": ["a", "b"]}|} in
  Alcotest.(check (option string)) "str_member" (Some "x") (Json.str_member "s" v);
  Alcotest.(check (option int)) "int_member" (Some 3) (Json.int_member "n" v);
  Alcotest.(check (option bool)) "bool_member" (Some true) (Json.bool_member "b" v);
  Alcotest.(check (option (list string)))
    "list_member" (Some [ "a"; "b" ]) (Json.list_member "l" v);
  Alcotest.(check (option string)) "missing member" None (Json.str_member "zz" v);
  (* Raw splices verbatim - the streaming path for cached items. *)
  Alcotest.(check string) "raw splice" {|{"item": {"x": 1}}|}
    (Json.to_string (Json.Obj [ ("item", Json.Raw {|{"x": 1}|}) ]))

(* ------------------------------------------------------------------ *)
(* Protocol *)

let parse_request_ok s =
  match Protocol.parse_request (parse_ok s) with
  | Ok env -> env
  | Error e -> Alcotest.failf "request %S rejected: %s" s e

let parse_request_err s =
  match Protocol.parse_request (parse_ok s) with
  | Ok _ -> Alcotest.failf "request %S accepted" s
  | Error e -> e

let test_protocol_requests () =
  let env = parse_request_ok {|{"op": "ping", "id": 7}|} in
  Alcotest.(check bool) "id echoed" true (env.Protocol.req_id = Json.Num 7.);
  Alcotest.(check bool) "ping parsed" true (env.Protocol.request = Protocol.Ping);
  Alcotest.(check bool) "ping not cacheable" false
    (Protocol.cacheable Protocol.Ping);
  let env = parse_request_ok {|{"op": "litmus", "tests": ["SB"], "model": "tso"}|} in
  (match env.Protocol.request with
  | Protocol.Litmus { tests = [ "SB" ]; model = Some Wmm_model.Axiomatic.Tso;
                      program = None; certify = false } ->
      ()
  | _ -> Alcotest.fail "litmus fields mis-parsed");
  ignore (parse_request_err {|{"tests": ["SB"]}|});
  ignore (parse_request_err {|{"op": "frobnicate"}|});
  ignore (parse_request_err {|{"op": "litmus", "model": "weird"}|});
  ignore (parse_request_err {|{"op": "analyze", "arch": "mips"}|});
  ignore (parse_request_err {|{"op": "conform", "max_edges": 0}|})

let test_canonical_key_field_order_and_id () =
  let key s = Protocol.canonical_key (parse_request_ok s).Protocol.request in
  Alcotest.(check string) "field order and id do not matter"
    (key {|{"op": "litmus", "tests": ["SB"], "model": "tso", "id": 1}|})
    (key {|{"id": 99, "model": "TSO", "op": "litmus", "tests": ["SB"]}|});
  Alcotest.(check bool) "different queries, different keys" true
    (key {|{"op": "litmus", "tests": ["SB"]}|}
    <> key {|{"op": "litmus", "tests": ["MP"]}|});
  match Protocol.canonical_key Protocol.Ping with
  | _ -> Alcotest.fail "non-cacheable op should have no key"
  | exception Invalid_argument _ -> ()

(* Protocol v5 dropped the conform "engine" field: an old client that
   still sends it has it ignored like any unknown key, and gets the
   answer (and cache entry) of a request without it. *)
let test_conform_engine_field_ignored () =
  let key s = Protocol.canonical_key (parse_request_ok s).Protocol.request in
  Alcotest.(check string) "engine field does not change the key"
    (key {|{"op": "conform", "arch": "arm", "max_edges": 3}|})
    (key {|{"op": "conform", "arch": "arm", "max_edges": 3, "engine": "pruned"}|})

(* ------------------------------------------------------------------ *)
(* A real server over a real socket.                                  *)
(* ------------------------------------------------------------------ *)

let with_server cfg f =
  let thread = Thread.create (fun () -> Server.serve cfg) () in
  (* Wait for the socket to appear. *)
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists cfg.Server.socket_path)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  if not (Sys.file_exists cfg.Server.socket_path) then
    Alcotest.fail "server did not come up";
  let shutdown_sent = ref false in
  let shutdown () =
    if not !shutdown_sent then begin
      shutdown_sent := true;
      match Client.connect ~socket_path:cfg.Server.socket_path with
      | Error _ -> ()
      | Ok c ->
          ignore (Client.roundtrip c {|{"op": "shutdown"}|});
          Client.close c
    end
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Thread.join thread)
    (fun () -> f shutdown)

let connect cfg =
  match Client.connect ~socket_path:cfg.Server.socket_path with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let roundtrip_ok c line =
  match Client.roundtrip c line with
  | Ok lines -> List.map parse_ok lines
  | Error e -> Alcotest.failf "roundtrip %S: %s" line e

let statuses frames =
  List.filter_map (fun v -> Json.str_member "status" v) frames

let item_describes frames =
  List.filter_map
    (fun v ->
      Option.bind (Json.member "item" v) (fun item -> Json.str_member "describe" item))
    frames

let served_from frames =
  List.filter_map (fun v -> Json.str_member "served_from" v) frames

let int_stat frames name =
  match frames with
  | [ v ] -> Option.value ~default:(-1) (Json.int_member name v)
  | _ -> -1

let quiet_cfg dir socket =
  {
    (Server.default_config ~socket_path:socket) with
    Server.jobs = 2;
    cache_dir = Some dir;
    run_id = Some "served-test";
    executors = 3;
  }

(* The expected one-shot verdicts for a library test under exhaustive
   exploration: exactly what ops.ml computes, derived independently
   through the public Check API. *)
let one_shot_describes name =
  let test =
    match Library.by_name name with
    | Some t -> t
    | None -> Alcotest.failf "unknown library test %s" name
  in
  List.filter_map
    (fun m ->
      if Test.expected_under test m = None then None
      else
        Some (Check.describe (Check.run_exhaustive m (Check.machine_config m) test)))
    Wmm_model.Axiomatic.all_models

let test_server_verdicts_match_one_shot () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          let c = connect cfg in
          (* ping *)
          let frames = roundtrip_ok c {|{"op": "ping", "id": "p1"}|} in
          Alcotest.(check (list string)) "ping ok" [ "ok" ] (statuses frames);
          (* cold litmus: computed, and bit-identical to the one-shot path *)
          let frames = roundtrip_ok c {|{"op": "litmus", "tests": ["SB", "MP"]}|} in
          Alcotest.(check (list string)) "cold query computed" [ "computed" ]
            (served_from frames);
          Alcotest.(check (list string)) "verdicts match the one-shot CLI path"
            (one_shot_describes "SB" @ one_shot_describes "MP")
            (item_describes frames);
          (* warm repeat: served from journal or cache, never recomputed *)
          let frames = roundtrip_ok c {|{"op": "litmus", "tests": ["SB", "MP"]}|} in
          (match served_from frames with
          | [ ("journal" | "cache") ] -> ()
          | other ->
              Alcotest.failf "warm query recomputed (served_from %s)"
                (String.concat "," other));
          Alcotest.(check (list string)) "warm verdicts identical"
            (one_shot_describes "SB" @ one_shot_describes "MP")
            (item_describes frames);
          (* malformed request: a structured error, connection stays up *)
          (match Client.roundtrip c {|{"op": "litmus", "tests": ["no-such-test"]}|} with
          | Ok [ line ] ->
              Alcotest.(check (list string)) "semantic error reported" [ "error" ]
                (statuses [ parse_ok line ])
          | Ok _ | Error _ -> Alcotest.fail "error should be a single final frame");
          let frames = roundtrip_ok c {|{"op": "cache-stats"}|} in
          Alcotest.(check bool) "cache-stats reports stores" true
            (int_stat frames "stores" > 0);
          Client.close c))

(* Protocol v6 dropped the litmus "mode" and "iterations" fields with
   random scheduling: a request that still sends them has the key of
   the request without them, and a daemon answers it with the
   exhaustive item. *)
let test_litmus_mode_fields_ignored () =
  let plain = {|{"op": "litmus", "tests": ["SB"], "model": "arm"}|} in
  let old =
    {|{"op": "litmus", "tests": ["SB"], "model": "arm", "mode": "random", "iterations": 5}|}
  in
  let request s = (parse_request_ok s).Protocol.request in
  Alcotest.(check string) "mode and iterations do not change the key"
    (Protocol.canonical_key (request plain))
    (Protocol.canonical_key (request old));
  let expected =
    List.map
      (fun item -> Json.to_string (parse_ok item))
      (Ops.compute ~engine:(Wmm_engine.Engine.sequential ()) (request plain))
  in
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          let c = connect cfg in
          let frames = roundtrip_ok c old in
          Alcotest.(check bool) "answered ok" true
            (statuses frames <> [] && List.for_all (fun s -> s = "ok") (statuses frames));
          Alcotest.(check (list string)) "the item of the request without the fields"
            expected
            (List.filter_map
               (fun v -> Option.map Json.to_string (Json.member "item" v))
               frames);
          Client.close c))

let test_server_dedup_and_stats () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          (* N concurrent clients fire the identical cold query: the
             computation must run once, the rest joining in flight or
             hitting the cache/journal the owner filled. *)
          let n = 6 in
          let oks = Array.make n false in
          let threads =
            Array.init n (fun i ->
                Thread.create
                  (fun () ->
                    let c = connect cfg in
                    let frames = roundtrip_ok c {|{"op": "litmus", "tests": ["LB"]}|} in
                    oks.(i) <-
                      List.for_all (fun s -> s = "ok") (statuses frames)
                      && item_describes frames = one_shot_describes "LB";
                    Client.close c)
                  ())
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun i ok -> if not ok then Alcotest.failf "client %d: wrong answer" i)
            oks;
          let c = connect cfg in
          let frames = roundtrip_ok c {|{"op": "stats"}|} in
          Alcotest.(check int) "identical concurrent queries computed once" 1
            (int_stat frames "computed");
          Alcotest.(check int) "every request answered" n (int_stat frames "ok");
          Alcotest.(check bool) "the rest shared: inflight, cache or journal" true
            (int_stat frames "dedup_joined"
             + int_stat frames "cache_hits"
             + int_stat frames "journal_hits"
            = n - 1);
          Client.close c))

let test_server_overload_sheds () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      (* No cache, queue bound of 1: with a battery-sized request
         admitted first, the next request on the same connection is
         deterministically shed (the reader admits strictly in
         order). *)
      let cfg =
        {
          (Server.default_config ~socket_path:socket) with
          Server.jobs = 2;
          cache_dir = None;
          queue_bound = 1;
        }
      in
      with_server cfg (fun _ ->
          let c = connect cfg in
          match
            Client.run_batch c
              [ {|{"op": "litmus", "id": "big"}|}; {|{"op": "litmus", "id": "shed", "tests": ["SB"]}|} ]
          with
          | Error e -> Alcotest.failf "batch: %s" e
          | Ok lines ->
              let frames = List.map parse_ok lines in
              let by_id id =
                List.filter
                  (fun v -> Json.str_member "id" v = Some id)
                  frames
              in
              Alcotest.(check bool) "big request completes ok" true
                (List.for_all (fun s -> s = "ok") (statuses (by_id "big"))
                && statuses (by_id "big") <> []);
              (match by_id "shed" with
              | [ v ] ->
                  Alcotest.(check (list string)) "second request shed"
                    [ "overloaded" ] (statuses [ v ]);
                  Alcotest.(check bool) "shed reply carries retry hint" true
                    (match Json.int_member "retry_after_ms" v with
                    | Some ms -> ms > 0
                    | None -> false)
              | _ -> Alcotest.fail "shed reply should be a single frame");
              let sc = connect cfg in
              let stats = roundtrip_ok sc {|{"op": "stats"}|} in
              Alcotest.(check int) "shed counted" 1 (int_stat stats "overloaded");
              Client.close sc;
              Client.close c))

let test_server_deadline_exceeded () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          (* A doomed request: conformance over the whole bound-6
             ARMv8 family, seconds of work, with a 250ms deadline.
             The cooperative cancellation token must kill it mid-task
             and the reply must be a structured deadline_exceeded
             frame - while a bystander on another connection keeps
             getting answers. *)
          let doomed =
            {|{"op": "conform", "arch": "arm", "max_edges": 6, "limit": 5000, "deadline_ms": 250, "id": "doomed"}|}
          in
          let c = connect cfg in
          Client.send_line c doomed;
          (* Bystander: connects, works and disconnects while the
             doomed request is still dying. *)
          let b = connect cfg in
          let frames = roundtrip_ok b {|{"op": "ping"}|} in
          Alcotest.(check (list string)) "bystander ping answered" [ "ok" ]
            (statuses frames);
          let frames = roundtrip_ok b {|{"op": "litmus", "tests": ["SB"]}|} in
          Alcotest.(check bool) "bystander query completes" true
            (List.for_all (fun s -> s = "ok") (statuses frames) && statuses frames <> []);
          Client.close b;
          (* Now the doomed request's own reply. *)
          let rec drain acc =
            match Client.recv_line c with
            | None -> List.rev acc
            | Some line ->
                if Client.is_final line then List.rev (line :: acc)
                else drain (line :: acc)
          in
          (match drain [] with
          | [ line ] ->
              let v = parse_ok line in
              Alcotest.(check (option string)) "structured deadline frame"
                (Some "deadline_exceeded") (Json.str_member "status" v);
              Alcotest.(check (option string)) "deadline frame keeps the id"
                (Some "doomed") (Json.str_member "id" v)
          | other ->
              Alcotest.failf "doomed request: expected one final frame, got %d"
                (List.length other));
          let stats = roundtrip_ok c {|{"op": "stats"}|} in
          Alcotest.(check bool) "deadline death counted" true
            (int_stat stats "deadline_exceeded" >= 1);
          Client.close c))

let test_resilient_client_retries_through_shed () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      (* Same shedding setup as the overload test: queue bound 1, no
         cache.  The plain client surfaces the overloaded frame; the
         resilient client must absorb it - honour the retry hint, back
         off, resend - and eventually deliver both answers. *)
      let cfg =
        {
          (Server.default_config ~socket_path:socket) with
          Server.jobs = 2;
          cache_dir = None;
          queue_bound = 1;
        }
      in
      with_server cfg (fun _ ->
          let policy =
            { Client.default_policy with Client.max_attempts = 10; seed = 11 }
          in
          match
            Client.run_resilient ~socket_path:socket ~policy
              [
                {|{"op": "litmus", "id": "big", "tests": ["SB", "MP", "LB"]}|};
                {|{"op": "litmus", "id": "shed", "tests": ["SB"]}|};
              ]
          with
          | Error e -> Alcotest.failf "resilient batch: %s" e
          | Ok out ->
              Alcotest.(check (list string)) "nothing gave up" []
                out.Client.gave_up_overloaded;
              Alcotest.(check bool) "the shed request needed at least one resend"
                true (out.Client.retries >= 1);
              let frames = List.map parse_ok out.Client.lines in
              let finals_of id =
                List.filter
                  (fun v ->
                    Json.str_member "id" v = Some id
                    && Json.str_member "status" v <> None)
                  frames
              in
              List.iter
                (fun id ->
                  Alcotest.(check bool)
                    (Printf.sprintf "request %s answered ok after retries" id)
                    true
                    (statuses (finals_of id) <> []
                    && List.for_all (fun s -> s = "ok") (statuses (finals_of id))))
                [ "big"; "shed" ];
              (* The server saw the resends: retry-tagged requests are
                 counted. *)
              let sc = connect cfg in
              let stats = roundtrip_ok sc {|{"op": "stats"}|} in
              Alcotest.(check bool) "server counted client retries" true
                (int_stat stats "client_retries" >= 1);
              Client.close sc))

let test_journal_hit_overtakes_a_miss () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      (* One executor, busy with a slow miss: a request the journal
         already answered must not wait behind it. *)
      let cfg = { (quiet_cfg dir socket) with Server.executors = 1 } in
      with_server cfg (fun _ ->
          let c = connect cfg in
          let hit = {|{"op": "litmus", "tests": ["SB"], "id": "hit"}|} in
          Alcotest.(check (list string)) "first ask computes" [ "computed" ]
            (served_from (roundtrip_ok c hit));
          match
            Client.run_batch c
              [
                {|{"op": "conform", "arch": "arm", "max_edges": 6, "limit": 5000, "deadline_ms": 1000, "id": "miss"}|};
                hit;
              ]
          with
          | Error e -> Alcotest.failf "batch: %s" e
          | Ok lines ->
              let finals = List.filter Client.is_final lines |> List.map parse_ok in
              Alcotest.(check (list (option string))) "the hit's final frame arrives first"
                [ Some "hit"; Some "miss" ]
                (List.map (fun v -> Json.str_member "id" v) finals);
              Alcotest.(check (list string)) "the hit is served from the journal"
                [ "journal" ] (served_from [ List.hd finals ]);
              let stats = roundtrip_ok c {|{"op": "stats"}|} in
              Alcotest.(check int) "journal hit counted" 1 (int_stat stats "journal_hits");
              Client.close c))

let test_server_restart_resumes_from_journal () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      let query = {|{"op": "litmus", "tests": ["SB+dmbs"]}|} in
      let first = ref [] in
      with_server cfg (fun shutdown ->
          let c = connect cfg in
          let frames = roundtrip_ok c query in
          Alcotest.(check (list string)) "first run computes" [ "computed" ]
            (served_from frames);
          first := item_describes frames;
          Client.close c;
          shutdown ());
      (* Same run id, fresh process state: the journal answers. *)
      with_server cfg (fun shutdown ->
          let c = connect cfg in
          let frames = roundtrip_ok c query in
          Alcotest.(check (list string)) "restart answers from the journal"
            [ "journal" ] (served_from frames);
          Alcotest.(check (list string)) "journal items identical" !first
            (item_describes frames);
          let stats = roundtrip_ok c {|{"op": "stats"}|} in
          Alcotest.(check int) "restart computed nothing" 0
            (int_stat stats "computed");
          Client.close c;
          shutdown ()))

let litmus_request fields = Json.to_string (Json.Obj (("op", Json.Str "litmus") :: fields))

(* The fields of one request per library test, for a journal to hold. *)
let library_fields n =
  List.filteri (fun i _ -> i < n) Library.all
  |> List.map (fun (t : Test.t) -> [ ("tests", Json.Arr [ Json.Str t.Test.name ]) ])

(* Journal hits are written by the reader thread while an executor's
   frames go through the writer thread; on one pipelined connection no
   line may tear and every request's frames stay in order. *)
let test_pipelined_frames_stay_whole () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          let hits = library_fields 20 in
          let warm = connect cfg in
          List.iter (fun f -> ignore (roundtrip_ok warm (litmus_request f))) hits;
          Client.close warm;
          let program =
            "AArch64 PIPE\n{ x=0; y=0 }\nP0 | P1 ;\nstr #1, &x | ldr x1, &y ;\n\
             str #1, &y | ldr x2, &x ;\nexists (1:x1=1 /\\ 1:x2=0)\n"
          in
          let inline = [ ("program", Json.Str program) ] in
          let requests =
            (("miss", inline) :: List.mapi (fun i f -> (Printf.sprintf "h%d" i, f)) hits)
            @ [ ("again", inline) ]
          in
          let c = connect cfg in
          List.iter
            (fun (id, f) -> Client.send_line c (litmus_request (("id", Json.Str id) :: f)))
            requests;
          let rec read pending acc =
            if pending = 0 then List.rev acc
            else
              match Client.recv_line c with
              | None -> Alcotest.failf "connection closed with %d answers pending" pending
              | Some line ->
                  let v = parse_ok line in
                  let final = Json.bool_member "final" v = Some true in
                  read (if final then pending - 1 else pending) (v :: acc)
          in
          let frames = read (List.length requests) [] in
          let frames_of id = List.filter (fun v -> Json.str_member "id" v = Some id) frames in
          let items id =
            List.filter_map (fun v -> Option.map Json.to_string (Json.member "item" v)) (frames_of id)
          in
          List.iter
            (fun (id, _) ->
              let fs = frames_of id in
              Alcotest.(check (list int)) (id ^ ": seq runs 0..k-1")
                (List.init (List.length fs) Fun.id)
                (List.map (fun v -> Option.value (Json.int_member "seq" v) ~default:(-1)) fs);
              Alcotest.(check (list bool)) (id ^ ": exactly one final, the last frame")
                (List.init (List.length fs) (fun i -> i = List.length fs - 1))
                (List.map (fun v -> Json.bool_member "final" v = Some true) fs);
              Alcotest.(check bool) (id ^ ": ok") true
                (List.for_all (fun st -> st = "ok") (statuses fs)))
            requests;
          Alcotest.(check int) "no stray frames"
            (List.length frames)
            (List.length (List.concat_map (fun (id, _) -> frames_of id) requests));
          Alcotest.(check bool) "the inline program has items" true (items "miss" <> []);
          Alcotest.(check (list string)) "both inline answers carry equal items" (items "miss")
            (items "again");
          Client.close c))

(* A client that sends without reading blocks its own reader thread
   once the daemon's writes to it block; another client's journal hit
   is still answered, and after the stalled client leaves the daemon
   shuts down. *)
let test_stalled_reader_stalls_only_itself () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun shutdown ->
          let hit = litmus_request (List.hd (library_fields 1)) in
          let b = connect cfg in
          ignore (roundtrip_ok b hit);
          let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect a (Unix.ADDR_UNIX socket);
          Unix.set_nonblock a;
          let line = hit ^ "\n" in
          (* Send until the daemon has stopped reading A for 200 ms. *)
          let give_up = Unix.gettimeofday () +. 20. in
          let rec flood off blocked_since =
            if Unix.gettimeofday () > give_up then
              Alcotest.fail "the daemon kept reading a client that never reads";
            match Unix.write_substring a line off (String.length line - off) with
            | n -> flood ((off + n) mod String.length line) None
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
                let now = Unix.gettimeofday () in
                match blocked_since with
                | Some t0 when now -. t0 > 0.2 -> ()
                | _ ->
                    Unix.sleepf 0.01;
                    flood off (Some (Option.value blocked_since ~default:now)))
          in
          flood 0 None;
          let t0 = Unix.gettimeofday () in
          Client.set_timeout b 5.;
          Alcotest.(check (list string)) "B's hit is answered from the journal" [ "journal" ]
            (served_from (roundtrip_ok b hit));
          let waited = Unix.gettimeofday () -. t0 in
          if waited > 1. then Alcotest.failf "B waited %.2f s behind a stalled client" waited;
          Client.close b;
          Unix.close a;
          shutdown ();
          let deadline = Unix.gettimeofday () +. 10. in
          while Sys.file_exists socket && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.02
          done;
          Alcotest.(check bool) "shutdown completed" false (Sys.file_exists socket)))

(* An unknown compilation scheme is answered with one error frame
   naming it; the connection stays usable. *)
let test_lang_unknown_scheme () =
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = quiet_cfg dir socket in
      with_server cfg (fun _ ->
          let c = connect cfg in
          (match
             roundtrip_ok c {|{"op": "lang", "action": "conform", "schemes": ["nope"]}|}
           with
          | [ frame ] ->
              Alcotest.(check (list string)) "error frame" [ "error" ] (statuses [ frame ]);
              Alcotest.(check (option string)) "names the scheme"
                (Some {|unknown compilation scheme "nope"|})
                (Json.str_member "error" frame)
          | frames -> Alcotest.failf "expected one final frame, got %d" (List.length frames));
          Alcotest.(check (list string)) "connection still answers" [ "ok" ]
            (statuses (roundtrip_ok c {|{"op": "ping"}|}));
          Client.close c))

let suite =
  [
    Alcotest.test_case "json roundtrip and accessors" `Quick test_json_roundtrip;
    Alcotest.test_case "protocol request validation" `Quick test_protocol_requests;
    Alcotest.test_case "canonical key is content-addressed" `Quick
      test_canonical_key_field_order_and_id;
    Alcotest.test_case "conform engine field is ignored" `Quick
      test_conform_engine_field_ignored;
    Alcotest.test_case "litmus mode fields are ignored" `Quick
      test_litmus_mode_fields_ignored;
    Alcotest.test_case "server verdicts match one-shot" `Quick
      test_server_verdicts_match_one_shot;
    Alcotest.test_case "server dedups identical queries" `Quick
      test_server_dedup_and_stats;
    Alcotest.test_case "server sheds load when saturated" `Quick
      test_server_overload_sheds;
    Alcotest.test_case "deadline_ms kills a slow task, others live" `Quick
      test_server_deadline_exceeded;
    Alcotest.test_case "resilient client retries through shedding" `Quick
      test_resilient_client_retries_through_shed;
    Alcotest.test_case "journal hit overtakes a slow miss" `Quick
      test_journal_hit_overtakes_a_miss;
    Alcotest.test_case "server restart resumes from journal" `Quick
      test_server_restart_resumes_from_journal;
    Alcotest.test_case "lang unknown scheme is an error frame" `Quick
      test_lang_unknown_scheme;
    Alcotest.test_case "pipelined frames stay whole" `Quick test_pipelined_frames_stay_whole;
    Alcotest.test_case "a client that stops reading stalls only itself" `Quick
      test_stalled_reader_stalls_only_itself;
  ]
