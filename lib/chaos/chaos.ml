(* Seeded chaos harness for the served daemon: see chaos.mli.

   Determinism contract: everything that decides WHAT happens - the
   battery, the fault kinds and their assignment to kill windows,
   which cache entries get corrupted, the client retry jitter seeds -
   is drawn from one Rng rooted at cfg.seed, on the main thread only.
   WHEN things happen (how far a computation got before kill -9, how
   many retries a restart cost) is wall-clock and varies run to run;
   the report keeps those in counters, never in the verdict lines. *)

module Rng = Wmm_util.Rng
module Json = Wmm_served.Json
module Client = Wmm_served.Client
module Protocol = Wmm_served.Protocol
module Ops = Wmm_served.Ops
module Cache = Wmm_engine.Cache
module Journal = Wmm_engine.Journal
module Engine = Wmm_engine.Engine

type config = {
  seed : int;
  bin : string;
  socket_path : string;
  cache_dir : string;
  battery_limit : int;
  kills : int;
  corruptions : int;
  disconnects : int;
  deadline_probes : int;
  slow_iterations : int;
  jobs : int;
  executors : int;
  verbose : bool;
}

let default_config ~bin ~dir =
  {
    seed = 7;
    bin;
    socket_path = Filename.concat dir "chaos.sock";
    cache_dir = Filename.concat dir "cache";
    battery_limit = 0;
    kills = 3;
    corruptions = 2;
    disconnects = 2;
    deadline_probes = 1;
    slow_iterations = 20_000;
    jobs = 2;
    executors = 2;
    verbose = false;
  }

type report = {
  r_battery : int;
  r_verdicts : string list;
  r_mismatches : (string * string) list;
  r_kills : int;
  r_corruptions : int;
  r_disconnects : int;
  r_torn_appends : int;
  r_lost_journals : int;
  r_deadline_probes : int;
  r_deadline_hits : int;
  r_client_retries : int;
  r_client_reconnects : int;
  r_counters : (string * int) list;
  r_corrupt_files : int;
  r_journal_fsck : Journal.fsck_report;
  r_cache_fsck : Cache.fsck_report;
  r_failures : string list;
  r_log : string list;
}

let ok r = r.r_mismatches = [] && r.r_failures = []

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Parse-and-reprint so whitespace/float formatting can never cause a
   spurious verdict diff between the wire form and Ops.compute's. *)
let normalize item =
  match Json.parse item with Ok v -> Json.to_string v | Error _ -> item

let count_suffix dir suffix =
  let n = ref 0 in
  let rec go d =
    match Sys.readdir d with
    | names ->
        Array.iter
          (fun name ->
            let p = Filename.concat d name in
            if Sys.is_directory p then go p
            else if Filename.check_suffix name suffix then incr n)
          names
    | exception Sys_error _ -> ()
  in
  if Sys.file_exists dir then go dir;
  !n

(* ------------------------------------------------------------------ *)
(* Battery and request lines                                           *)
(* ------------------------------------------------------------------ *)

type bt = { b_id : string; b_line : string; b_req : Protocol.request }

let battery_of cfg =
  let all =
    List.map (fun t -> t.Wmm_litmus.Test.name) Wmm_litmus.Library.all
  in
  let names = if cfg.battery_limit > 0 then take cfg.battery_limit all else all in
  List.map
    (fun name ->
      let id = "t:" ^ name in
      {
        b_id = id;
        b_line =
          Json.to_string
            (Json.Obj
               [
                 ("op", Json.Str "litmus");
                 ("tests", Json.Arr [ Json.Str name ]);
                 ("mode", Json.Str "exhaustive");
                 ("id", Json.Str id);
               ]);
        b_req =
          Protocol.Litmus
            { tests = [ name ]; program = None; model = None;
              mode = Protocol.Exhaustive; certify = false };
      })
    names

(* A whole-library random-mode run: slow enough to still be computing
   when a fault lands.  Ids are prefixed "slow:" - never compared. *)
let slow_line ~id ~iterations ?deadline_ms () =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.Str "litmus");
          ("mode", Json.Str "random");
          ("iterations", Json.of_int iterations);
          ("id", Json.Str id);
        ]
       @
       match deadline_ms with
       | None -> []
       | Some d -> [ ("deadline_ms", Json.of_int d) ]))

let ping_line =
  Json.to_string (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "ready") ])

let op_line op = Json.to_string (Json.Obj [ ("op", Json.Str op) ])

let frames_for ~id lines =
  List.filter
    (fun l ->
      match Json.parse l with
      | Ok v -> Json.str_member "id" v = Some id
      | Error _ -> false)
    lines

let items_of frames =
  List.filter_map
    (fun l ->
      match Json.parse l with
      | Ok v -> (
          match Json.member "item" v with
          | Some it -> Some (Json.to_string it)
          | None -> None)
      | Error _ -> None)
    frames

let statuses_of frames =
  List.filter_map
    (fun l ->
      match Json.parse l with
      | Ok v -> Json.str_member "status" v
      | Error _ -> None)
    frames

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { d_cfg : config; mutable d_pid : int; mutable d_incarnation : int }

let start_daemon d =
  let cfg = d.d_cfg in
  let args =
    [|
      cfg.bin; "serve";
      "--socket"; cfg.socket_path;
      "--cache-dir"; cfg.cache_dir;
      "--run-id"; "chaos";
      "--jobs"; string_of_int cfg.jobs;
      "--executors"; string_of_int cfg.executors;
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0o644 in
  let err = if cfg.verbose then Unix.stderr else null in
  let pid = Unix.create_process cfg.bin args null null err in
  Unix.close null;
  d.d_pid <- pid

let wait_ready cfg ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let up =
      match Client.connect ~socket_path:cfg.socket_path with
      | Error _ -> false
      | Ok c ->
          Client.set_timeout c 10.;
          let r = Client.roundtrip c ping_line in
          Client.close c;
          Result.is_ok r
    in
    if up then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

let kill_daemon d =
  (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error _ -> ());
  d.d_incarnation <- d.d_incarnation + 1

let shutdown_daemon d =
  (match Client.connect ~socket_path:d.d_cfg.socket_path with
  | Ok c ->
      Client.set_timeout c 30.;
      ignore (Client.roundtrip c (op_line "shutdown"));
      Client.close c
  | Error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
    | 0, _ ->
        if tries <= 0 then begin
          (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.sleepf 0.1;
          reap (tries - 1)
        end
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap 100

(* ------------------------------------------------------------------ *)
(* Counter snapshots across incarnations                               *)
(* ------------------------------------------------------------------ *)

(* kill -9 resets the daemon's in-memory telemetry, so totals are
   reconstructed as the sum over incarnations of the largest value each
   incarnation's snapshots reported (its counters only grow).  A
   counter whose roundtrip failed is unmeasured, never 0.  Bumps
   between an incarnation's last snapshot and its kill are lost - the
   accounting checks are all >=-thresholds against events whose
   counter bump happens before the next snapshot. *)
let counter_keys =
  [
    "requests"; "ok"; "request_errors"; "overloaded"; "computed";
    "cache_hits"; "journal_hits"; "deadline_exceeded"; "executor_recycles";
    "client_retries"; "verify_failures";
  ]

(* The counters the daemon answered: [verify_failures] from the
   cache-stats op, the rest from stats. *)
let snapshot cfg =
  match Client.connect ~socket_path:cfg.socket_path with
  | Error _ -> []
  | Ok c ->
      Client.set_timeout c 30.;
      let final_of = function
        | Ok lines -> (
            match List.rev lines with
            | l :: _ -> Result.to_option (Json.parse l)
            | [] -> None)
        | Error _ -> None
      in
      let stats = final_of (Client.roundtrip c (op_line "stats")) in
      let cstats = final_of (Client.roundtrip c (op_line "cache-stats")) in
      Client.close c;
      List.filter_map
        (fun k ->
          let source = if k = "verify_failures" then cstats else stats in
          Option.map (fun v -> (k, v)) (Option.bind source (Json.int_member k)))
        counter_keys

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run cfg =
  if cfg.corruptions > 0 && cfg.kills < 1 then
    invalid_arg
      "Chaos.run: corruptions need at least one kill (a live daemon's \
       in-memory journal would shadow the corrupted cache entry)";
  let rng = Rng.create cfg.seed in
  let log = ref [] in
  let logf fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  rm_rf cfg.cache_dir;
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  mkdir_p cfg.cache_dir;
  let battery = battery_of cfg in
  let n = List.length battery in
  if n = 0 then invalid_arg "Chaos.run: empty battery";
  (* Pristine expectations: the same Ops.compute a one-shot CLI run
     goes through, sequential, no cache, no daemon. *)
  let expected =
    let engine = Engine.sequential () in
    List.map
      (fun b -> (b.b_id, List.map normalize (Ops.compute ~engine b.b_req)))
      battery
  in
  let d = { d_cfg = cfg; d_pid = -1; d_incarnation = 0 } in
  start_daemon d;
  if not (wait_ready cfg ~timeout_s:60.) then begin
    kill_daemon d;
    failwith "Chaos.run: daemon did not come up"
  end;
  (* (incarnation, counter) -> the largest value seen. *)
  let peaks = Hashtbl.create 64 in
  let snap () =
    match snapshot cfg with
    | [] -> logf "snapshot incarnation %d: daemon unreachable" d.d_incarnation
    | s ->
        let unmeasured = List.filter (fun k -> not (List.mem_assoc k s)) counter_keys in
        logf "snapshot incarnation %d: %s%s" d.d_incarnation
          (String.concat " "
             (List.filter_map
                (fun (k, v) ->
                  if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
                s))
          (if unmeasured = [] then ""
           else " (unmeasured: " ^ String.concat " " unmeasured ^ ")");
        List.iter
          (fun (k, v) ->
            let key = (d.d_incarnation, k) in
            let seen = Option.value ~default:0 (Hashtbl.find_opt peaks key) in
            Hashtbl.replace peaks key (max seen v))
          s
  in
  let retries = ref 0 and reconnects = ref 0 in
  let mismatches = ref [] in
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let policy seed =
    { Client.default_policy with max_attempts = 10; base_delay_s = 0.25; seed }
  in
  let run_wave ~seed ?(extra = []) name reqs =
    let lines = List.map (fun b -> b.b_line) reqs @ extra in
    match
      Client.run_resilient ~socket_path:cfg.socket_path ~policy:(policy seed)
        lines
    with
    | Error e ->
        failf "wave %s: transport failure: %s" name e;
        []
    | Ok out ->
        retries := !retries + out.Client.retries;
        reconnects := !reconnects + out.Client.reconnects;
        if out.Client.gave_up_overloaded <> [] then
          failf "wave %s: gave up overloaded: %s" name
            (String.concat "," out.Client.gave_up_overloaded);
        out.Client.lines
  in
  let check_wave name reqs lines =
    List.iter
      (fun b ->
        let exp = List.assoc b.b_id expected in
        let frames = frames_for ~id:b.b_id lines in
        let got = List.map normalize (items_of frames) in
        if List.exists (fun s -> s <> "ok") (statuses_of frames) then
          mismatches := (b.b_id, name ^ ": non-ok status frame") :: !mismatches
        else if got <> exp then begin
          let first_diff =
            match
              List.find_opt
                (fun (g, e) -> g <> e)
                (try List.combine got exp with Invalid_argument _ -> [])
            with
            | Some (g, e) -> Printf.sprintf "; first diff got %s want %s" g e
            | None -> ""
          in
          mismatches :=
            ( b.b_id,
              Printf.sprintf "%s: %d items vs %d expected%s" name
                (List.length got) (List.length exp) first_diff )
            :: !mismatches
        end)
      reqs
  in

  logf "wave warm: full battery (%d requests), pristine daemon" n;
  let w0 = run_wave ~seed:(Rng.int rng 1_000_000) "warm" battery in
  check_wave "warm" battery w0;
  snap ();

  (* Fault schedule: kills and disconnects in a seed-shuffled order.
     File faults ride kill windows (applied while the daemon is down):
     every corruption is paired with a journal deletion - otherwise
     the restarted daemon would replay the journal and never read the
     corrupted cache entry - and the torn append goes to the LAST
     kill in execution order, so no later deletion erases the
     evidence before the final fsck. *)
  let events =
    shuffle rng
      (List.init cfg.kills (fun i -> `Kill i)
      @ List.init cfg.disconnects (fun i -> `Disconnect i))
  in
  let kill_order = List.filter_map (function `Kill i -> Some i | _ -> None) events in
  let last_kill = match List.rev kill_order with i :: _ -> i | [] -> -1 in
  let corr_targets =
    match List.filter (fun i -> i <> last_kill) kill_order with
    | [] -> if last_kill >= 0 then [ last_kill ] else []
    | other -> other
  in
  let corr_windows =
    List.init cfg.corruptions (fun j ->
        List.nth corr_targets (j mod List.length corr_targets))
  in
  (* The cache handle must see the entries the *daemon* wrote, and
     filenames embed the writing binary's version digest — so derive
     the version from cfg.bin, not from whatever executable the
     harness happens to be linked into (the CLI and the daemon are the
     same binary, but the test runner is not). *)
  let bin_version =
    try Digest.to_hex (Digest.file cfg.bin) with _ -> "unversioned"
  in
  let cache_handle = Cache.create ~dir:cfg.cache_dir ~version:bin_version () in
  let journal_path =
    Filename.concat (Filename.concat cfg.cache_dir "journal") "chaos.jsonl"
  in
  let corrupted = Hashtbl.create 8 in
  let corruptions_done = ref 0 and torn_done = ref 0 and lost_done = ref 0 in
  let corrupt_one () =
    let arr = Array.of_list battery in
    let start = Rng.int rng (Array.length arr) in
    let rec go k =
      if k >= Array.length arr then
        failf "corruption: no uncorrupted cache entry left to garble"
      else begin
        let b = arr.((start + k) mod Array.length arr) in
        let key = Protocol.canonical_key b.b_req in
        if Hashtbl.mem corrupted key then go (k + 1)
        else if Cache.corrupt cache_handle ~key then begin
          Hashtbl.replace corrupted key ();
          incr corruptions_done;
          logf "fault: corrupted cache entry of %s" b.b_id
        end
        else go (k + 1)
      end
    in
    go 0
  in
  let lose_journal () =
    if Sys.file_exists journal_path then begin
      (try Sys.remove journal_path with Sys_error _ -> ());
      incr lost_done;
      logf "fault: deleted journal %s" (Filename.basename journal_path)
    end
  in
  let torn_append () =
    let fd =
      Unix.openfile journal_path
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644
    in
    let s = {|{"key": "chaos-torn", "status": "ok", "digest": "dead|} in
    ignore (Unix.write_substring fd s 0 (String.length s));
    Unix.close fd;
    incr torn_done;
    logf "fault: tore a journal append (partial line, no newline)"
  in
  let chunk_size = max 2 (n / max 1 cfg.kills) in
  let chunk_of i =
    List.init (min chunk_size n) (fun j ->
        List.nth battery (((i * chunk_size) + j) mod n))
  in
  let do_kill i =
    let chunk = chunk_of i in
    let slow =
      slow_line
        ~id:(Printf.sprintf "slow:kill%d" i)
        ~iterations:(cfg.slow_iterations + i) ()
    in
    logf "wave kill%d: %d battery requests + 1 slow request, then kill -9" i
      (List.length chunk);
    let seed = Rng.int rng 1_000_000 in
    let kill_after = 0.2 +. Rng.float rng 0.2 in
    let result = ref [] in
    let th =
      Thread.create
        (fun () ->
          result :=
            run_wave ~seed ~extra:[ slow ] (Printf.sprintf "kill%d" i) chunk)
        ()
    in
    Unix.sleepf kill_after;
    (* Snapshot the condemned incarnation first: the chunk's cache
       hits (including any verify-failure on a previously corrupted
       entry) happened microseconds after admission, and their
       counter bumps die with the process otherwise. *)
    snap ();
    kill_daemon d;
    logf "fault: kill -9 -> incarnation %d" d.d_incarnation;
    List.iter
      (fun w ->
        if w = i then begin
          corrupt_one ();
          lose_journal ()
        end)
      corr_windows;
    if i = last_kill then torn_append ();
    start_daemon d;
    if not (wait_ready cfg ~timeout_s:60.) then
      failf "kill%d: daemon did not come back after restart" i;
    Thread.join th;
    check_wave (Printf.sprintf "kill%d" i) chunk !result;
    snap ()
  in
  let do_disconnect i =
    match Client.connect ~socket_path:cfg.socket_path with
    | Error e -> failf "disconnect%d: %s" i e
    | Ok c ->
        Client.set_timeout c 60.;
        let id = Printf.sprintf "disc:%d" i in
        (* Whole-library request: streams far more frames than the
           server's per-client queue bound, so yanking the socket
           after a few reads hits the writer mid-stream. *)
        Client.send_line c
          (Json.to_string
             (Json.Obj
                [
                  ("op", Json.Str "litmus");
                  ("mode", Json.Str "exhaustive");
                  ("id", Json.Str id);
                ]));
        let reads = 1 + Rng.int rng 3 in
        for _ = 1 to reads do
          ignore (Client.recv_line c)
        done;
        Client.close c;
        logf "fault: yanked client %s after %d frames" id reads
  in
  List.iter (function `Kill i -> do_kill i | `Disconnect i -> do_disconnect i) events;

  (* Deadline probes: a doomed request must die by its deadline while
     bystander clients keep getting answers. *)
  let do_probe i =
    match Client.connect ~socket_path:cfg.socket_path with
    | Error e ->
        failf "probe%d: connect: %s" i e;
        false
    | Ok doomed -> (
        Client.set_timeout doomed 120.;
        let id = Printf.sprintf "slow:probe%d" i in
        Client.send_line doomed
          (slow_line ~id
             ~iterations:((cfg.slow_iterations * 50) + i)
             ~deadline_ms:250 ());
        let bystander_ok =
          match Client.connect ~socket_path:cfg.socket_path with
          | Error _ -> false
          | Ok c ->
              Client.set_timeout c 30.;
              let r1 = Client.roundtrip c ping_line in
              let r2 = Client.roundtrip c (List.hd battery).b_line in
              Client.close c;
              Result.is_ok r1 && Result.is_ok r2
        in
        if not bystander_ok then
          failf "probe%d: bystander requests failed while the probe burned" i;
        let rec await () =
          match Client.recv_line doomed with
          | None ->
              failf "probe%d: connection died before the deadline frame" i;
              false
          | Some l -> (
              match Json.parse l with
              | Ok v when Json.str_member "id" v = Some id -> (
                  match Json.str_member "status" v with
                  | Some "deadline_exceeded" ->
                      logf "probe%d: deadline_exceeded after %d ms (limit 250)"
                        i
                        (Option.value ~default:(-1)
                           (Json.int_member "elapsed_ms" v));
                      true
                  | Some s ->
                      failf "probe%d: answered %S, wanted deadline_exceeded" i s;
                      false
                  | None ->
                      failf "probe%d: frame without status" i;
                      false)
              | _ -> await ())
        in
        let hit = await () in
        Client.close doomed;
        hit)
  in
  let deadline_hits =
    List.length
      (List.filter (fun h -> h) (List.init cfg.deadline_probes do_probe))
  in
  if cfg.deadline_probes > 0 then snap ();

  logf "wave final: full battery (%d requests) after every fault" n;
  let wf = run_wave ~seed:(Rng.int rng 1_000_000) "final" battery in
  check_wave "final" battery wf;
  let verdicts =
    List.concat_map
      (fun b ->
        let items = List.map normalize (items_of (frames_for ~id:b.b_id wf)) in
        List.mapi
          (fun i it -> Printf.sprintf "verdict|%s|%d|%s" b.b_id i it)
          items)
      battery
  in
  snap ();
  shutdown_daemon d;

  let corrupt_files = count_suffix cfg.cache_dir ".corrupt" in
  let cache_fsck = Cache.fsck cache_handle in
  let journal_fsck =
    Journal.fsck ~dir:(Filename.concat cfg.cache_dir "journal") ~run_id:"chaos"
      ()
  in
  let total k = Hashtbl.fold (fun (_, k') v n -> if k' = k then n + v else n) peaks 0 in
  let totals = List.map (fun k -> (k, total k)) counter_keys in

  (* Accounting: every injected fault must be visible somewhere. *)
  if !corruptions_done < cfg.corruptions then
    failf "only %d of %d corruptions could be applied" !corruptions_done
      cfg.corruptions;
  if
    !corruptions_done > 0
    && total "verify_failures" + cache_fsck.Cache.f_quarantined
       < !corruptions_done
  then
    failf
      "verify_failures=%d + fsck_quarantined=%d < corruptions=%d: a corrupted \
       entry was silently served"
      (total "verify_failures") cache_fsck.Cache.f_quarantined
      !corruptions_done;
  if !corruptions_done > 0 && corrupt_files < !corruptions_done then
    failf "%d .corrupt files on disk < %d corruptions: quarantine lost a body"
      corrupt_files !corruptions_done;
  if deadline_hits < cfg.deadline_probes then
    failf "only %d of %d deadline probes died by deadline" deadline_hits
      cfg.deadline_probes;
  if cfg.deadline_probes > 0 && total "deadline_exceeded" < deadline_hits then
    failf "counter deadline_exceeded=%d < observed deadline frames=%d"
      (total "deadline_exceeded") deadline_hits;
  (* executor_recycles is NOT required to be nonzero: every compute
     path polls its cancellation token, so cooperative death beats
     the watchdog's quarantine in practice.  It is reported so a
     regression in polling shows up as recycles instead. *)
  if cfg.kills > 0 && !reconnects < 1 then
    failf "client never reconnected despite %d kill -9s" cfg.kills;
  if cfg.kills > 0 && total "client_retries" < 1 then
    failf
      "server saw no retry-flagged request despite %d kill -9s (replays are \
       invisible)"
      cfg.kills;
  if
    !torn_done > 0 && journal_fsck.Journal.j_lines > 0
    && journal_fsck.Journal.j_torn < 1
  then failf "journal fsck saw no torn line despite a torn append";

  {
    r_battery = n;
    r_verdicts = verdicts;
    r_mismatches = List.rev !mismatches;
    r_kills = cfg.kills;
    r_corruptions = !corruptions_done;
    r_disconnects = cfg.disconnects;
    r_torn_appends = !torn_done;
    r_lost_journals = !lost_done;
    r_deadline_probes = cfg.deadline_probes;
    r_deadline_hits = deadline_hits;
    r_client_retries = !retries;
    r_client_reconnects = !reconnects;
    r_counters = totals;
    r_corrupt_files = corrupt_files;
    r_journal_fsck = journal_fsck;
    r_cache_fsck = cache_fsck;
    r_failures = List.rev !failures;
    r_log = List.rev !log;
  }

let render r =
  let b = Buffer.create 4096 in
  List.iter
    (fun v ->
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    r.r_verdicts;
  List.iter (fun l -> Printf.bprintf b "chaos-log: %s\n" l) r.r_log;
  Printf.bprintf b
    "chaos: battery=%d kills=%d corruptions=%d disconnects=%d torn=%d \
     lost_journals=%d probes=%d hits=%d\n"
    r.r_battery r.r_kills r.r_corruptions r.r_disconnects r.r_torn_appends
    r.r_lost_journals r.r_deadline_probes r.r_deadline_hits;
  Printf.bprintf b "chaos: client retries=%d reconnects=%d\n" r.r_client_retries
    r.r_client_reconnects;
  List.iter
    (fun (k, v) -> Printf.bprintf b "chaos: counter %s=%d\n" k v)
    r.r_counters;
  Printf.bprintf b
    "chaos: corrupt_files=%d cache_fsck={scanned=%d ok=%d quarantined=%d \
     unverified=%d} journal_fsck={lines=%d ok=%d torn=%d duplicates=%d \
     orphans=%d kept=%d compacted=%b}\n"
    r.r_corrupt_files r.r_cache_fsck.Cache.f_scanned r.r_cache_fsck.Cache.f_ok
    r.r_cache_fsck.Cache.f_quarantined r.r_cache_fsck.Cache.f_unverified
    r.r_journal_fsck.Journal.j_lines r.r_journal_fsck.Journal.j_ok
    r.r_journal_fsck.Journal.j_torn r.r_journal_fsck.Journal.j_duplicates
    r.r_journal_fsck.Journal.j_orphans r.r_journal_fsck.Journal.j_kept
    r.r_journal_fsck.Journal.j_compacted;
  List.iter
    (fun (id, detail) -> Printf.bprintf b "chaos: MISMATCH %s: %s\n" id detail)
    r.r_mismatches;
  List.iter (fun f -> Printf.bprintf b "chaos: FAIL %s\n" f) r.r_failures;
  Printf.bprintf b "chaos: %s\n" (if ok r then "OK" else "FAILED");
  Buffer.contents b
