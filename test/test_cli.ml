(* The wmm_bench command line as a user meets it: a usage error exits 2
   with a `wmm_bench: ` message rather than an uncaught exception, a
   rejected request opens no journal, and `figure` with several ids
   prints exactly what the single-id runs print. *)

let temp_path suffix =
  let path = Filename.temp_file "wmm_cli" suffix in
  Sys.remove path;
  path

(* Run the binary with [args]; returns its exit code, stdout and stderr. *)
let run args =
  let out = Filename.temp_file "wmm_cli" ".out" in
  let err = Filename.temp_file "wmm_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s"
         (Filename.quote (Test_cert.bench_bin ()))
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  let result = (code, Test_cert.read_file out, Test_cert.read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let check_usage_error args =
  let code, out, err = run args in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  if not (String.starts_with ~prefix:"wmm_bench: " err) then
    Alcotest.failf "stderr does not start with \"wmm_bench: \":\n%s" err;
  if Test_cert.contains ~sub:"uncaught exception" err then
    Alcotest.failf "stderr reports an uncaught exception:\n%s" err;
  err

let usage_error args =
  Alcotest.test_case
    ("usage error: " ^ String.concat " " args)
    `Quick
    (fun () -> ignore (check_usage_error args))

let test_litmus_missing_file () =
  ignore (check_usage_error [ "litmus"; "--file"; temp_path ".litmus" ])

let test_litmus_unparsable_file () =
  let path = Filename.temp_file "wmm_cli" ".litmus" in
  Fun.protect
    ~finally:(fun () -> Wmm_util.Fs.rm_rf path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "no litmus here\n");
      ignore (check_usage_error [ "litmus"; "--file"; path ]))

(* Names are resolved before the engine exists: the error comes
   before any journal is opened under the cache directory.  Returns
   the error text. *)
let lang_usage_error args =
  let dir = temp_path "" in
  Fun.protect
    ~finally:(fun () -> Wmm_util.Fs.rm_rf dir)
    (fun () ->
      let err = check_usage_error (("lang" :: args) @ [ "--cache-dir"; dir ]) in
      if Test_cert.contains ~sub:"journal:" err then Alcotest.failf "a journal was opened:\n%s" err;
      Alcotest.(check bool) "cache directory untouched" false (Sys.file_exists dir);
      err)

let test_lang_error_opens_no_journal () = ignore (lang_usage_error [ "explore"; "--test"; "NOPE" ])

(* An unknown scheme or lock name lists the valid ones. *)
let lang_unknown_name args valid =
  Alcotest.test_case
    ("usage error: lang " ^ String.concat " " args)
    `Quick
    (fun () ->
      let err = lang_usage_error args in
      List.iter
        (fun name ->
          if not (Test_cert.contains ~sub:name err) then
            Alcotest.failf "valid name %s not listed:\n%s" name err)
        valid)

let test_figure_several_ids () =
  let figure ids =
    let code, out, _ = run (("figure" :: ids) @ [ "--no-cache" ]) in
    Alcotest.(check int) ("exit code of figure " ^ String.concat " " ids) 0 code;
    out
  in
  let ids = [ "fig1"; "fig2_3"; "fig4" ] in
  Alcotest.(check string)
    "one run prints the single-id runs' stdout, in order"
    (String.concat "" (List.map (fun id -> figure [ id ]) ids))
    (figure ids)

let suite =
  [
    usage_error [ "litmus"; "--test"; "NOPE" ];
    Alcotest.test_case "usage error: litmus --file (missing)" `Quick
      test_litmus_missing_file;
    Alcotest.test_case "usage error: litmus --file (unparsable)" `Quick
      test_litmus_unparsable_file;
    usage_error [ "asm"; "NOPE" ];
    usage_error [ "sensitivity"; "--bench"; "nope" ];
    usage_error [ "sensitivity"; "--path"; "nope" ];
    usage_error [ "figure"; "fig1"; "--inject-faults"; "bogus=1" ];
    usage_error [ "figure"; "nope" ];
    usage_error [ "figure"; "fig1"; "nope" ];
    Alcotest.test_case "lang usage error opens no journal" `Quick
      test_lang_error_opens_no_journal;
    lang_unknown_name [ "conform"; "--scheme"; "nope" ]
      (List.map Wmm_lang.Compile.scheme_name Wmm_lang.Compile.all_schemes);
    lang_unknown_name [ "rank"; "--test"; "nope" ]
      (List.map (fun (l : Wmm_lang.Locks.t) -> l.Wmm_lang.Locks.name) Wmm_lang.Locks.all);
    Alcotest.test_case "figure with several ids" `Quick test_figure_several_ids;
  ]
