type stats = {
  hits : int;
  misses : int;
  stores : int;
  errors : int;
  pruned : int;
  verify_failures : int;
}

type active = {
  a_dir : string;
  version : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable errors : int;
  mutable pruned : int;
  mutable verify_failures : int;
}

type t = Disabled | Active of active

let default_dir = "_wmm_cache"

let disabled = Disabled

let code_version =
  let v =
    lazy
      (try Digest.to_hex (Digest.file Sys.executable_name)
       with _ -> "unversioned")
  in
  fun () -> Lazy.force v

let create ?(dir = default_dir) ?version () =
  let version = match version with Some v -> v | None -> code_version () in
  Active
    { a_dir = dir; version; lock = Mutex.create (); hits = 0; misses = 0;
      stores = 0; errors = 0; pruned = 0; verify_failures = 0 }

let enabled = function Disabled -> false | Active _ -> true
let dir = function Disabled -> None | Active a -> Some a.a_dir

let stats = function
  | Disabled ->
      { hits = 0; misses = 0; stores = 0; errors = 0; pruned = 0;
        verify_failures = 0 }
  | Active a ->
      Mutex.lock a.lock;
      let s =
        { hits = a.hits; misses = a.misses; stores = a.stores; errors = a.errors;
          pruned = a.pruned; verify_failures = a.verify_failures }
      in
      Mutex.unlock a.lock;
      s

let bump a f =
  Mutex.lock a.lock;
  f a;
  Mutex.unlock a.lock

(* Entries are sharded into 256 subdirectories by the first two hex
   characters of their digest: concurrent writers (several daemon
   workers, or a daemon plus one-shot CLIs sharing _wmm_cache/)
   spread their directory traffic instead of all contending on one
   huge flat directory. *)
let digest_hex a key = Digest.to_hex (Digest.string (a.version ^ "\x00" ^ key))

let shard_of_digest hex = String.sub hex 0 2

let path a key =
  let hex = digest_hex a key in
  Filename.concat (Filename.concat a.a_dir (shard_of_digest hex)) (hex ^ ".cache")

(* Tmp names embed PID, domain and a process-global counter: two
   daemons (or a daemon and a CLI) sharing one cache directory can
   never collide on a tmp path, and neither can two stores of the
   same key racing within one process after a domain id is reused. *)
let tmp_counter = Atomic.make 0

let tmp_name file =
  Printf.sprintf "%s.tmp.%d.%d.%d" file (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add tmp_counter 1)

(* Entry layout (three marshalled fields after a magic marker):
     magic ^ key ^ digest-of-payload ^ payload
   where payload is the marshalled value as a string.  The digest is
   verified on every read, so a flipped bit anywhere in the payload
   reads as damage — not as a plausible-but-wrong result — and the
   file is quarantined. *)
let entry_magic = "wmm-cache-v2"

(* The stored key and payload of the entry in [file].  Raises
   [Sys_error] when the file cannot be opened, and anything else when
   its bytes are not a whole entry with a matching payload digest. *)
let read_fields file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let magic : string = Marshal.from_channel ic in
      if magic <> entry_magic then failwith "Cache: not an entry";
      let key : string = Marshal.from_channel ic in
      let digest : string = Marshal.from_channel ic in
      let payload : string = Marshal.from_channel ic in
      if Digest.string payload <> digest then failwith "Cache: payload digest mismatch";
      (key, payload))

let read_entry ~key file =
  match read_fields file with
  | stored_key, payload when stored_key = key -> `Hit (Marshal.from_string payload 0)
  | _ -> `Miss
  | exception Sys_error _ -> `Miss
  (* Anything else — truncated marshal header, garbled bytes, a
     failing digest — is evidence of on-disk damage, never of a plain
     miss. *)
  | exception _ -> `Corrupt

(* Move a damaged entry out of the lookup path but keep the evidence:
   <hex>.cache becomes <hex>.corrupt, which no lookup and no fsck ever
   reads.  Maintenance counts it, and [clear] and [prune] remove it. *)
let quarantine_path file =
  (try Filename.chop_suffix file ".cache" with Invalid_argument _ -> file)
  ^ ".corrupt"

let quarantine file =
  try
    Sys.rename file (quarantine_path file);
    true
  with Sys_error _ -> false

let find t ~key =
  match t with
  | Disabled -> None
  | Active a -> (
      let file = path a key in
      match read_entry ~key file with
      | `Hit v ->
          bump a (fun a -> a.hits <- a.hits + 1);
          Some v
      | `Miss ->
          bump a (fun a -> a.misses <- a.misses + 1);
          None
      | `Corrupt ->
          ignore (quarantine file);
          bump a (fun a ->
              a.verify_failures <- a.verify_failures + 1;
              a.errors <- a.errors + 1;
              a.misses <- a.misses + 1);
          None)

let store t ~key value =
  match t with
  | Disabled -> ()
  | Active a -> (
      let file = path a key in
      let tmp = tmp_name file in
      try
        Wmm_util.Fs.mkdir_p (Filename.dirname file);
        let payload = Marshal.to_string value [] in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Marshal.to_channel oc entry_magic [];
            Marshal.to_channel oc key [];
            Marshal.to_channel oc (Digest.string payload) [];
            Marshal.to_channel oc payload []);
        Sys.rename tmp file;
        bump a (fun a -> a.stores <- a.stores + 1)
      with _ ->
        (try Sys.remove tmp with _ -> ());
        bump a (fun a -> a.errors <- a.errors + 1))

(* ------------------------------------------------------------------ *)
(* Maintenance: listing, clearing, LRU pruning.                       *)
(* ------------------------------------------------------------------ *)

(* Every entry this module writes ends in ".cache", and a quarantined
   one in ".corrupt"; anything else in the directory (journals, tmp
   files of live writers) is left alone.  The top level is walked as
   well as the two-hex-character shard subdirectories, so [clear] and
   [prune] also remove the flat entries of older builds. *)
let is_shard_dir name =
  String.length name = 2
  && String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) name

let entries_in dirname =
  match Sys.readdir dirname with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".cache" || Filename.check_suffix name ".corrupt"
             then
               let file = Filename.concat dirname name in
               match Unix.stat file with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                   Some (file, st_size, st_mtime)
               | _ | (exception Unix.Unix_error _) -> None
             else None)

let entries dirname =
  let shards =
    match Sys.readdir dirname with
    | exception Sys_error _ -> []
    | names ->
        Array.to_list names
        |> List.filter (fun name ->
               is_shard_dir name
               && try Sys.is_directory (Filename.concat dirname name)
                  with Sys_error _ -> false)
  in
  entries_in dirname
  @ List.concat_map (fun shard -> entries_in (Filename.concat dirname shard)) shards

let disk_usage = function
  | Disabled -> None
  | Active a ->
      let es = entries a.a_dir in
      Some (List.length es, List.fold_left (fun acc (_, size, _) -> acc + size) 0 es)

let clear t =
  match t with
  | Disabled -> 0
  | Active a ->
      let removed =
        List.fold_left
          (fun n (file, _, _) -> match Sys.remove file with () -> n + 1 | exception Sys_error _ -> n)
          0 (entries a.a_dir)
      in
      bump a (fun a -> a.pruned <- a.pruned + removed);
      removed

let prune t ~max_bytes =
  match t with
  | Disabled -> 0
  | Active a ->
      (* Oldest-mtime-first eviction until the directory fits the
         budget; [find] refreshes no timestamps, so mtime here is
         store order - good enough for a results cache whose entries
         are written once and only ever re-read. *)
      let es =
        List.sort (fun (_, _, m1) (_, _, m2) -> compare m1 m2) (entries a.a_dir)
      in
      let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 es in
      let removed, _ =
        List.fold_left
          (fun (n, remaining) (file, size, _) ->
            if remaining <= max_bytes then (n, remaining)
            else
              match Sys.remove file with
              | () -> (n + 1, remaining - size)
              | exception Sys_error _ -> (n, remaining))
          (0, total) es
      in
      bump a (fun a -> a.pruned <- a.pruned + removed);
      removed

(* ------------------------------------------------------------------ *)
(* Offline verification: walk every entry and check its payload       *)
(* digest.  Filenames embed the digest of the *writing* binary's      *)
(* version, so the key→filename mapping cannot be re-derived here —   *)
(* fsck verifies payload integrity only, which is exactly the         *)
(* property [find] relies on at serve time.                           *)
(* ------------------------------------------------------------------ *)

type fsck_report = { f_scanned : int; f_ok : int; f_quarantined : int }

let fsck t =
  match t with
  | Disabled -> { f_scanned = 0; f_ok = 0; f_quarantined = 0 }
  | Active a ->
      let report =
        List.fold_left
          (fun r (file, _, _) ->
            let r = { r with f_scanned = r.f_scanned + 1 } in
            match read_fields file with
            | _ -> { r with f_ok = r.f_ok + 1 }
            (* Vanished mid-scan (concurrent prune): not damage. *)
            | exception Sys_error _ -> { r with f_ok = r.f_ok + 1 }
            | exception _ ->
                if quarantine file then { r with f_quarantined = r.f_quarantined + 1 }
                else r)
          { f_scanned = 0; f_ok = 0; f_quarantined = 0 }
          (List.filter
             (fun (file, _, _) -> Filename.check_suffix file ".cache")
             (entries a.a_dir))
      in
      bump a (fun a ->
          a.verify_failures <- a.verify_failures + report.f_quarantined;
          a.errors <- a.errors + report.f_quarantined);
      report

let corrupt t ~key =
  match t with
  | Disabled -> false
  | Active a -> (
      match open_out_gen [ Open_wronly; Open_binary ] 0o644 (path a key) with
      | exception Sys_error _ -> false
      | oc ->
          (* Garble the header in place: the marshalled stored-key no
             longer round-trips, so the next [find] must detect the
             damage and count an error rather than return junk. *)
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc "\xde\xad\xbe\xef\xde\xad\xbe\xef");
          true)
