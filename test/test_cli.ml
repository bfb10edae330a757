(* The wmm_bench command line as a user meets it: a usage error exits 2
   with a `wmm_bench: ` message rather than an uncaught exception, a
   rejected request opens no journal, `litmus` prints the machine
   search's verdicts, and `figure` with several ids prints exactly what
   the single-id runs print. *)

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

(* The machine search is the only machine mode: `litmus` prints what
   [Check.run_exhaustive] gives, one line per checked model. *)
let test_litmus_default_is_exhaustive () =
  let open Wmm_litmus in
  let sb = Option.get (Library.by_name "SB") in
  let code, out, _ = run [ "litmus"; "--test"; "SB" ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "the exhaustive verdicts"
    (String.concat ""
       (List.map
          (fun m -> Check.describe (Check.run_exhaustive m (Check.machine_config m) sb) ^ "\n")
          (Check.models_for ~parsed:false sb)))
    out

(* A program whose machine state space exceeds the search's bound is
   reported as an error naming the test, before any axiomatic search
   (which would take minutes on this program). *)
let too_large_for_the_machine =
  {|AArch64 BIG
{ x=0; y=0; z=0 }
P0         | P1         | P2         | P3         ;
str #1, &x | str #1, &y | str #1, &z | ldr x1, &x ;
str #2, &y | str #2, &z | str #2, &x | ldr x2, &y ;
str #3, &z | str #3, &x | str #3, &y | ldr x3, &z ;
ldr x1, &x | ldr x1, &y | ldr x1, &z | ldr x4, &x ;
ldr x2, &y | ldr x2, &z | ldr x2, &x | ldr x5, &y ;
ldr x3, &z | ldr x3, &x | ldr x3, &y | ldr x6, &z ;
exists (3:x1=1 /\ 3:x2=0)
|}

(* `litmus --file` on [text] must fail as a usage error naming BIG. *)
let check_big_refused text =
  let path = Filename.temp_file "wmm_cli" ".litmus" in
  Fun.protect
    ~finally:(fun () -> Wmm_util.Fs.rm_rf path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      let err = check_usage_error [ "litmus"; "--file"; path ] in
      if not (String.starts_with ~prefix:"wmm_bench: BIG: " err) then
        Alcotest.failf "stderr does not name the test:\n%s" err;
      err)

let test_litmus_too_large_for_the_machine () =
  ignore (check_big_refused too_large_for_the_machine)

(* The same program under a condition its machine search reaches at
   the first final state: the axiomatic search then meets about 1.07e9
   run combinations (64 per writer thread, 4096 for the observer) and
   must refuse them before listing them. *)
let test_litmus_too_many_run_combinations () =
  let reached_at_once =
    String.split_on_char '\n' too_large_for_the_machine
    |> List.map (fun line ->
           if String.starts_with ~prefix:"exists" line then {|exists (3:x1=2 /\ 3:x2=3)|}
           else line)
    |> String.concat "\n"
  in
  let err = check_big_refused reached_at_once in
  if not (Test_cert.contains ~sub:"run combinations" err) then
    Alcotest.failf "stderr does not blame the run combinations:\n%s" err

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
    Alcotest.test_case "litmus default is exhaustive" `Quick
      test_litmus_default_is_exhaustive;
    Alcotest.test_case "litmus --file too large for the machine" `Slow
      test_litmus_too_large_for_the_machine;
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
    Alcotest.test_case "litmus --file with too many run combinations" `Slow
      test_litmus_too_many_run_combinations;
  ]
