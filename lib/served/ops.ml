open Wmm_litmus
module Engine = Wmm_engine.Engine
module Task = Wmm_engine.Task

let obj fields = Json.to_string (Json.Obj fields)

(* ------------------------------------------------------------------ *)
(* litmus *)

let resolve_litmus_tests ~tests ~program =
  match program with
  | Some text -> (
      match Parse.parse text with
      | Ok p -> [ (p.Parse.test, true) ]
      | Error e -> failwith (Printf.sprintf "program: %s" e))
  | None -> (
      match tests with
      | [] -> List.map (fun t -> (t, false)) Library.all
      | names ->
          List.map
            (fun name ->
              match Library.by_name name with
              | Some t -> (t, false)
              | None -> failwith (Printf.sprintf "unknown litmus test %S" name))
            names)

let verdict_item ?certificate v =
  let open Check in
  let cert_fields =
    match certificate with
    | None -> []
    | Some (Ok cert) ->
        [ ("certificate", Json.Str (Wmm_cert.Certificate.to_string cert)) ]
    | Some (Error msg) -> [ ("certificate_error", Json.Str msg) ]
  in
  obj
    ([
      ("test", Json.Str v.test.Test.name);
      ("model", Json.Str (Protocol.model_wire_name v.model));
      ("axiomatic_allowed", Json.Bool v.axiomatic_allowed);
      ( "expected",
        match v.expected with Some b -> Json.Bool b | None -> Json.Null );
      ("observed", Json.Bool v.observed);
      ("sound", Json.Bool (Check.sound v));
      ("describe", Json.Str (Check.describe v));
    ]
    @ cert_fields)

let run_litmus ~engine ~tests ~program ~model ~certify =
  let selected = resolve_litmus_tests ~tests ~program in
  let pairs =
    List.concat_map
      (fun (test, from_program) ->
        List.map
          (fun m -> (test, m, from_program))
          (match model with
          | Some m -> [ m ]
          | None -> Check.models_for ~parsed:from_program test))
      selected
  in
  let task_of (test, m, from_program) =
    let content =
      (* Library tests are keyed by unique name; inline programs by a
         digest of their rendered form (names may collide). *)
      if from_program then Digest.to_hex (Digest.string (Parse.to_text test))
      else test.Test.name
    in
    let key =
      (* v2: the certify flag entered the key (certified and plain
         results have different payloads and must not alias); v3: the
         machine mode left it (the exhaustive search is the only one);
         v4: the item lost its "observations" and "total" counts;
         v5: forbidden certificates carry their count, not the
         execution set. *)
      Printf.sprintf "served/litmus/v5|%s|%s|certify=%b" content
        (Protocol.model_wire_name m) certify
    in
    Task.pure ~key ~label:("litmus " ^ test.Test.name) (fun () ->
        let v = Check.run_exhaustive m (Check.machine_config m) test in
        let certificate =
          if certify then
            Some
              (Result.bind (Wmm_certify.Emit.litmus m test)
                 (Wmm_certify.Emit.agree ~allowed:v.Check.axiomatic_allowed))
          else None
        in
        verdict_item ?certificate v)
  in
  let outcomes = Engine.run_all engine (Array.of_list (List.map task_of pairs)) in
  Array.to_list (Array.map Engine.get outcomes)

(* ------------------------------------------------------------------ *)
(* analyze *)

let resolve_library_tests = function
  | [] -> Library.all
  | names ->
      List.map
        (fun name ->
          match Library.by_name name with
          | Some t -> t
          | None -> failwith (Printf.sprintf "unknown litmus test %S" name))
        names

let run_analyze ~engine ~tests ~arch ~cost =
  let tests = resolve_library_tests tests in
  let rows = Wmm_analysis.Infer.analyze_all ~with_cost:cost ~engine ~arch tests in
  List.map
    (fun row ->
      let open Wmm_analysis.Infer in
      let extra =
        match row.status with
        | Inferred inf ->
            [
              ("cycles", Json.of_int inf.cycle_count);
              ("delays", Json.of_int inf.delay_count);
              ("witnesses_ok", Json.Bool inf.witnesses_ok);
            ]
        | _ -> []
      in
      obj
        ([
           ("test", Json.Str row.test.Test.name);
           ("arch", Json.Str (Wmm_isa.Arch.name row.arch));
           ("model", Json.Str (Protocol.model_wire_name row.model));
           ("status", Json.Str (status_string row.status));
         ]
        @ extra))
    rows

(* ------------------------------------------------------------------ *)
(* conform *)

let run_conform ~engine ~arch ~max_edges ~limit ~infer_limit =
  let tests = Wmm_synth.Synth.battery ~max_edges ~limit arch in
  let report =
    Wmm_synth.Conform.run
      ~config:{ Wmm_synth.Conform.default_config with infer_limit }
      ~engine ~arch tests
  in
  let open Wmm_synth.Conform in
  let summary =
    obj
      [
        ("arch", Json.Str (Wmm_isa.Arch.name report.arch));
        ("tests", Json.of_int report.tests);
        ("explore_checks", Json.of_int report.explore_checks);
        ("machine_checks", Json.of_int report.machine_checks);
        ("machine_skipped", Json.of_int report.machine_skipped);
        ("infer_checks", Json.of_int report.infer_checks);
        ("cert_checks", Json.of_int report.cert_checks);
        ("cert_skipped", Json.of_int report.cert_skipped);
        ("disagreements", Json.of_int (List.length report.disagreements));
      ]
  in
  let disagreement d =
    obj
      [
        ("layer", Json.Str (layer_name d.layer));
        ( "model",
          match d.model with
          | Some m -> Json.Str (Protocol.model_wire_name m)
          | None -> Json.Null );
        ("test", Json.Str d.test.Test.name);
        ("detail", Json.Str d.detail);
        ("shrunk", Json.Str (Parse.to_text ~arch:report.arch d.shrunk));
      ]
  in
  summary :: List.map disagreement report.disagreements

(* ------------------------------------------------------------------ *)
(* lang *)

let resolve_schemes ~default names =
  match Wmm_lang.Catalog.select_schemes ~default names with
  | Ok schemes -> schemes
  | Error name -> failwith (Printf.sprintf "unknown compilation scheme %S" name)

let resolve_lang_tests ~limit ~default names =
  match Wmm_lang.Catalog.select ~limit ~default names with
  | Ok tests -> tests
  | Error name -> failwith (Printf.sprintf "unknown lang test %S" name)

let run_lang ~engine ~action ~tests ~schemes ~limit =
  let open Wmm_lang in
  match action with
  | Protocol.L_explore ->
      ignore engine;
      List.map
        (fun (t : Test.t) ->
          let outcomes, witness = Catalog.explore t in
          obj
            [
              ("test", Json.Str t.Test.name);
              ("model", Json.Str "rc11");
              ("outcomes", Json.of_int outcomes);
              ("witness_reachable", Json.Bool witness);
            ])
        (resolve_lang_tests ~limit ~default:Catalog.locks tests)
  | Protocol.L_conform ->
      let schemes = resolve_schemes ~default:Compile.all_schemes schemes in
      let battery = resolve_lang_tests ~limit ~default:Catalog.conform_default tests in
      let report = Contain.run ~schemes ~engine battery in
      let summary =
        obj
          [
            ("tests", Json.of_int report.Contain.tests);
            ("checks", Json.of_int report.Contain.checks);
            ("skipped", Json.of_int report.Contain.skipped);
            ( "violations",
              Json.of_int (List.length report.Contain.disagreements) );
          ]
      in
      let disagreement (d : Wmm_synth.Conform.disagreement) =
        obj
          [
            ("layer", Json.Str (Wmm_synth.Conform.layer_name d.Wmm_synth.Conform.layer));
            ("test", Json.Str d.Wmm_synth.Conform.test.Test.name);
            ("detail", Json.Str d.Wmm_synth.Conform.detail);
          ]
      in
      summary :: List.map disagreement report.Contain.disagreements
  | Protocol.L_rank ->
      let schemes = resolve_schemes ~default:Rank.default_schemes schemes in
      let locks =
        match Catalog.select_locks tests with
        | Ok locks -> locks
        | Error name -> failwith (Printf.sprintf "unknown lock %S" name)
      in
      let rows = Rank.run ~schemes ~locks ~engine () in
      List.map
        (fun r ->
          obj
            [
              ("scheme", Json.Str (Compile.scheme_name r.Rank.scheme));
              ("lock", Json.Str r.Rank.lock);
              ("broken", Json.of_int r.Rank.broken);
              ("total", Json.of_int r.Rank.total);
              ("default_safe", Json.Bool r.Rank.default_safe);
              ("line", Json.Str (Rank.row_line r));
            ])
        rows

(* ------------------------------------------------------------------ *)

let compute ~engine = function
  | Protocol.Litmus { tests; program; model; certify } ->
      run_litmus ~engine ~tests ~program ~model ~certify
  | Protocol.Analyze { tests; arch; cost } -> run_analyze ~engine ~tests ~arch ~cost
  | Protocol.Conform { arch; max_edges; limit; infer_limit } ->
      run_conform ~engine ~arch ~max_edges ~limit ~infer_limit
  | Protocol.Lang { action; tests; schemes; limit } ->
      run_lang ~engine ~action ~tests ~schemes ~limit
  | req -> invalid_arg ("Ops.compute: non-cacheable op " ^ Protocol.op_name req)
