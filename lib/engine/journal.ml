type t = {
  j_path : string;
  j_run_id : string;
  lock : Mutex.t;
  mutable append_fd : Unix.file_descr option;  (* opened by the first append *)
  replay_table : (string, string) Hashtbl.t;  (* key -> marshalled value *)
  loaded_entries : int;
  loaded_dropped : int;  (* torn / digest-mismatched lines skipped on open *)
}

let default_dir = Filename.concat Cache.default_dir "journal"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sanitize run_id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    run_id

let derived_run_id ~tag parts =
  let digest = Digest.to_hex (Digest.string (String.concat "\x00" parts)) in
  Printf.sprintf "%s-%s" (sanitize tag) (String.sub digest 0 12)

(* ------------------------------------------------------------------ *)
(* Line encoding.  One JSON object per line; marshalled values are    *)
(* hex-encoded so every line stays printable single-line text.        *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

(* The value of each hex digit, either case; -1 for any other byte. *)
let hex_values =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | 'A' .. 'F' -> c - Char.code 'A' + 10
      | _ -> -1)

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then failwith "Journal: odd hex length";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = hex_values.(Char.code s.[2 * i]) and lo = hex_values.(Char.code s.[(2 * i) + 1]) in
    if hi < 0 || lo < 0 then failwith "Journal: bad hex digit";
    Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string b

(* Ok lines carry an MD5 of the raw marshalled value: a bit flipped
   inside the hex payload after the line was written still parses as
   JSON and as hex, so without the digest it would replay as a
   plausible wrong result.  With it, damage reads as a torn line. *)
let ok_line ~key value_bytes =
  Printf.sprintf {|{"key": "%s", "status": "ok", "digest": "%s", "value": "%s"}|}
    (Telemetry.json_escape key)
    (Digest.to_hex (Digest.string value_bytes))
    (hex_encode value_bytes)

let failed_line ~key ~msg =
  Printf.sprintf {|{"key": "%s", "status": "failed", "msg": "%s"}|}
    (Telemetry.json_escape key) (Telemetry.json_escape msg)

(* Minimal parser for exactly the lines this module writes: a fixed
   field order and only string values.  Torn or foreign lines fail to
   parse and are skipped, which makes replay safe after a crash
   mid-append. *)
let parse_string_at s i =
  if i >= String.length s || s.[i] <> '"' then failwith "Journal: expected string";
  let b = Buffer.create 32 in
  let rec go i =
    if i >= String.length s then failwith "Journal: unterminated string"
    else
      match s.[i] with
      | '"' -> (Buffer.contents b, i + 1)
      | '\\' ->
          if i + 1 >= String.length s then failwith "Journal: bad escape"
          else begin
            (match s.[i + 1] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if i + 5 >= String.length s then failwith "Journal: bad \\u escape";
                Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (i + 2) 4)))
            | _ -> failwith "Journal: unknown escape");
            go (if s.[i + 1] = 'u' then i + 6 else i + 2)
          end
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go (i + 1)

let expect s i literal =
  let n = String.length literal in
  if i + n <= String.length s && String.sub s i n = literal then i + n
  else failwith "Journal: malformed line"

type entry = Ok_entry of string * string | Failed_entry of string * string

let parse_line line =
  let i = expect line 0 {|{"key": |} in
  let key, i = parse_string_at line i in
  let i = expect line i {|, "status": |} in
  let status, i = parse_string_at line i in
  match status with
  | "ok" ->
      (* Digest is optional on parse so journals written before the
         field existed still replay (unverified). *)
      let digest, i =
        let lit = {|, "digest": |} in
        let n = String.length lit in
        if i + n <= String.length line && String.sub line i n = lit then
          let d, i = parse_string_at line (i + n) in
          (Some d, i)
        else (None, i)
      in
      let i = expect line i {|, "value": |} in
      let value_hex, i = parse_string_at line i in
      ignore (expect line i "}");
      let value_bytes = hex_decode value_hex in
      (match digest with
      | Some d when Digest.to_hex (Digest.string value_bytes) <> d ->
          failwith "Journal: value digest mismatch"
      | _ -> ());
      Ok_entry (key, value_bytes)
  | "failed" ->
      let i = expect line i {|, "msg": |} in
      let msg, i = parse_string_at line i in
      ignore (expect line i "}");
      Failed_entry (key, msg)
  | _ -> failwith "Journal: unknown status"

(* ------------------------------------------------------------------ *)
(* Open / replay / append.                                            *)
(* ------------------------------------------------------------------ *)

let open_ ?(dir = default_dir) ~run_id () =
  let path = Filename.concat dir (sanitize run_id ^ ".jsonl") in
  let replay_table = Hashtbl.create 64 in
  let loaded = ref 0 in
  let dropped = ref 0 in
  (if Sys.file_exists path then
     let ic = open_in_bin path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         try
           while true do
             let line = input_line ic in
             match parse_line line with
             | Ok_entry (key, value_bytes) ->
                 (* Last occurrence wins; results are deterministic, so
                    duplicates across appended runs agree anyway. *)
                 if not (Hashtbl.mem replay_table key) then incr loaded;
                 Hashtbl.replace replay_table key value_bytes
             | Failed_entry _ ->
                 (* Failures are journaled for the record but never
                    replayed: they may have been transient. *)
                 ()
             | exception _ -> incr dropped (* torn / damaged / foreign: drop *)
           done
         with End_of_file -> ()));
  {
    j_path = path;
    j_run_id = run_id;
    lock = Mutex.create ();
    append_fd = None;
    replay_table;
    loaded_entries = !loaded;
    loaded_dropped = !dropped;
  }

let path t = t.j_path
let run_id t = t.j_run_id
let loaded t = t.loaded_entries
let dropped t = t.loaded_dropped

let replay t ~key =
  Mutex.lock t.lock;
  let found = Hashtbl.find_opt t.replay_table key in
  Mutex.unlock t.lock;
  Option.map (fun bytes -> Marshal.from_string bytes 0) found

(* Tmp names embed PID, domain and a process-global counter, the same
   uniqueness discipline as the cache: concurrent fsck runs sharing a
   directory can never race on a tmp path. *)
let tmp_counter = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add tmp_counter 1)

(* One durability discipline: each record goes to an O_APPEND fd in
   ONE write(2).  A buffered channel could split one record across
   several syscalls, so two processes appending to the same run id
   could interleave mid-record; a single O_APPEND write is atomic with
   respect to the file offset, so concurrent writers can at worst tear
   the final line of a crashed process - which the load-time parser
   skips.  Each append costs O(line), not O(file).

   A torn final line has no newline, so the next record would extend
   it and be lost with it on load.  The first write through a fresh fd
   therefore starts with a newline when the file ends mid-line: the
   torn fragment stays a line of its own. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let ends_mid_line fd =
  let size = (Unix.fstat fd).Unix.st_size in
  size > 0
  &&
  let last = Bytes.create 1 in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'

let append t line =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      try
        match t.append_fd with
        | Some fd -> write_all fd (line ^ "\n")
        | None ->
            mkdir_p (Filename.dirname t.j_path);
            let fd =
              Unix.openfile t.j_path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644
            in
            t.append_fd <- Some fd;
            write_all fd ((if ends_mid_line fd then "\n" else "") ^ line ^ "\n")
      with _ -> ())

let record_ok t ~key value =
  let bytes = Marshal.to_string value [] in
  Mutex.lock t.lock;
  Hashtbl.replace t.replay_table key bytes;
  Mutex.unlock t.lock;
  append t (ok_line ~key bytes)

let record_failed t ~key ~msg = append t (failed_line ~key ~msg)

let close t =
  Mutex.lock t.lock;
  (match t.append_fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.append_fd <- None
  | None -> ());
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Offline fsck: scan one run's JSONL for torn, duplicate and orphan  *)
(* records, then compact it (tmp + rename) down to one line per       *)
(* surviving key.  Orphans are failed records superseded by a later   *)
(* ok for the same key — kept lines are the last ok per key in        *)
(* first-seen order, plus failures that were never superseded.        *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  j_lines : int;
  j_ok : int;
  j_failed : int;
  j_torn : int;
  j_duplicates : int;
  j_orphans : int;
  j_kept : int;
  j_compacted : bool;
}

let fsck ?(dir = default_dir) ~run_id () =
  let path = Filename.concat dir (sanitize run_id ^ ".jsonl") in
  let zero =
    { j_lines = 0; j_ok = 0; j_failed = 0; j_torn = 0; j_duplicates = 0;
      j_orphans = 0; j_kept = 0; j_compacted = false }
  in
  if not (Sys.file_exists path) then zero
  else begin
    let lines = ref 0 and ok = ref 0 and failed = ref 0 and torn = ref 0 in
    let dups = ref 0 in
    let last_ok : (string, string) Hashtbl.t = Hashtbl.create 64 in
    let ok_order = ref [] (* keys, first-seen order, reversed *) in
    let failures = ref [] (* (key, line), order, reversed *) in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            incr lines;
            match parse_line line with
            | Ok_entry (key, _) ->
                incr ok;
                if Hashtbl.mem last_ok key then incr dups
                else ok_order := key :: !ok_order;
                Hashtbl.replace last_ok key line
            | Failed_entry (key, _) ->
                incr failed;
                failures := (key, line) :: !failures
            | exception _ -> incr torn
          done
        with End_of_file -> ());
    (* A failure is an orphan once any ok for its key exists. *)
    let orphans =
      List.length (List.filter (fun (k, _) -> Hashtbl.mem last_ok k) !failures)
    in
    let kept_failures =
      List.rev (List.filter (fun (k, _) -> not (Hashtbl.mem last_ok k)) !failures)
    in
    let kept = List.length !ok_order + List.length kept_failures in
    let needs_compaction = !torn > 0 || !dups > 0 || orphans > 0 in
    if needs_compaction then begin
      let tmp = tmp_name path in
      let oc = open_out_bin tmp in
      (try
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             List.iter
               (fun key ->
                 output_string oc (Hashtbl.find last_ok key);
                 output_char oc '\n')
               (List.rev !ok_order);
             List.iter
               (fun (_, line) ->
                 output_string oc line;
                 output_char oc '\n')
               kept_failures);
         Sys.rename tmp path
       with e ->
         (try Sys.remove tmp with _ -> ());
         raise e)
    end;
    { j_lines = !lines; j_ok = !ok; j_failed = !failed; j_torn = !torn;
      j_duplicates = !dups; j_orphans = orphans; j_kept = kept;
      j_compacted = needs_compaction }
  end
