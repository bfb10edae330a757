(* Proof-carrying verdicts: the certificate tier.  Emission over the
   whole litmus library must roundtrip and pass the independent
   checker; every mutation of a certificate field must be rejected
   with a structured reason; a planted explorer bug (RMW atomicity
   dropped) must produce certificates the checker refuses; machine
   traces must replay through the checker's sequential interpreter;
   and the golden fixtures under data/ must regenerate byte-for-byte
   (refresh: `dune exec test/gen_cert_golden.exe >
   test/data/cert_golden.txt`). *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
open Wmm_machine
open Wmm_cert
open Wmm_analysis

let fast = Sys.getenv_opt "WMM_FAST" <> None

let sb = Option.get (Library.by_name "SB")
let mp = Option.get (Library.by_name "MP")
let iriw = Option.get (Library.by_name "IRIW")

let emit (t : Test.t) model =
  match Wmm_certify.Emit.litmus model t with
  | Ok cert -> cert
  | Error msg ->
      Alcotest.failf "%s under %s: certificate emission failed: %s" t.Test.name
        (Axiomatic.model_name model) msg

let check_ok name cert =
  match Checker.check cert with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%s: certificate rejected: %s" name (Checker.reason_string r)

let expect_reject name code cert =
  match Checker.check cert with
  | Ok () -> Alcotest.failf "%s: corrupted certificate accepted" name
  | Error r -> Alcotest.(check string) (name ^ ": reason code") code r.Checker.code

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_claim cert claim = { cert with Certificate.claim }

(* An allowed certificate relabelled as forbidden, with the count of
   the emission walk: the checker's own walk must meet the witness
   again and refute the claim.  The count must also agree with the
   checker's recount, or the rejection names the count instead. *)
let expect_refuted name (cert : Certificate.t) =
  match cert.Certificate.claim with
  | Certificate.Allowed _ ->
      let model =
        List.find
          (fun m -> Axiomatic.model_name m = Axioms.model_name cert.Certificate.model)
          Axiomatic.all_models
      in
      let f_count =
        match Enumerate.walk model cert.Certificate.program (fun _ -> false) with
        | Enumerate.Exhausted n -> n
        | Enumerate.Witness _ -> Alcotest.failf "%s: a predicate that never holds matched" name
      in
      expect_reject (name ^ " relabelled forbidden") "forbidden-refuted"
        (with_claim cert (Certificate.Forbidden { Certificate.f_count }))
  | Certificate.Forbidden _ | Certificate.Minimal _ -> ()

(* --- library sweep: emit, roundtrip, check ----------------------- *)

let test_library_certificates () =
  let tests =
    (if fast then List.filteri (fun i _ -> i mod 4 = 0) Library.all else Library.all)
    @ Test_explore.live_corner_cases
  in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun model ->
          let cert = emit t model in
          let claimed_allowed =
            match cert.Certificate.claim with
            | Certificate.Allowed _ -> true
            | Certificate.Forbidden _ -> false
            | Certificate.Minimal _ ->
                Alcotest.failf "%s: litmus emission produced a minimality claim"
                  t.Test.name
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: claim matches the verdict" t.Test.name
               (Axiomatic.model_name model))
            (Check.axiomatic_allowed model t)
            claimed_allowed;
          let text = Certificate.to_string cert in
          (match Certificate.of_string text with
          | Error msg ->
              Alcotest.failf "%s under %s: reparse failed: %s" t.Test.name
                (Axiomatic.model_name model) msg
          | Ok reparsed ->
              if Certificate.to_string reparsed <> text then
                Alcotest.failf "%s under %s: serialization does not roundtrip"
                  t.Test.name (Axiomatic.model_name model);
              let name = Printf.sprintf "%s under %s" t.Test.name (Axiomatic.model_name model) in
              check_ok name reparsed;
              expect_refuted name reparsed))
        Axiomatic.all_models)
    tests

(* --- machine event traces replay canonically --------------------- *)

let test_machine_traces () =
  let seeds = if fast then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (cfg_name, cfg) ->
          List.iter
            (fun seed ->
              let outcome, traces = Relaxed.run_traced cfg ~seed t.Test.program in
              let regs = ref [] in
              Array.iteri
                (fun tid actions ->
                  match
                    Replay.replay_thread t.Test.program.Program.threads.(tid) actions
                  with
                  | Ok run ->
                      regs :=
                        List.map (fun (r, v) -> ((tid, r), v)) run.Replay.r_regs @ !regs
                  | Error msg ->
                      Alcotest.failf "%s (%s, seed %d): thread %d trace rejected: %s"
                        t.Test.name cfg_name seed tid msg)
                traces;
              if List.sort compare !regs <> outcome.Relaxed.registers then
                Alcotest.failf
                  "%s (%s, seed %d): replayed registers differ from the machine run"
                  t.Test.name cfg_name seed)
            seeds)
        [
          ("sc", Relaxed.sc_config);
          ("tso", Relaxed.tso_config);
          ("relaxed", Relaxed.relaxed_config);
        ])
    Library.all

(* --- mutation tests: every corruption is rejected ----------------- *)

let test_mutations_allowed () =
  (* MP without fences is allowed under ARMv8. *)
  let cert = emit mp Axiomatic.Arm in
  let w =
    match cert.Certificate.claim with
    | Certificate.Allowed w -> w
    | _ -> Alcotest.fail "MP under ARMv8 should be an allowed claim"
  in
  check_ok "pristine MP witness" cert;
  expect_reject "dropped rf edge" "rf-missing"
    (with_claim cert
       (Certificate.Allowed { w with Certificate.w_rf = List.tl w.Certificate.w_rf }));
  expect_reject "reversed co chain" "co-malformed"
    (with_claim cert
       (Certificate.Allowed
          {
            w with
            Certificate.w_co =
              List.map (fun (l, chain) -> (l, List.rev chain)) w.Certificate.w_co;
          }));
  expect_reject "forged final registers" "final-state-mismatch"
    (with_claim cert
       (Certificate.Allowed
          {
            w with
            Certificate.w_regs =
              List.map (fun (k, v) -> (k, v + 7)) w.Certificate.w_regs;
          }));
  expect_reject "forged final memory" "final-state-mismatch"
    (with_claim cert
       (Certificate.Allowed
          {
            w with
            Certificate.w_mem = List.map (fun (l, v) -> (l, v + 7)) w.Certificate.w_mem;
          }));
  (* Tampering with a read's claimed value desynchronises it from its
     rf source: the replay dutifully propagates the value, but the
     edge no longer relates equal values. *)
  let tampered = ref false in
  let bump (e : Trace.event) =
    match e.Trace.action with
    | Trace.Read { loc; value; order } when not !tampered ->
        tampered := true;
        { e with Trace.action = Trace.Read { loc; value = value + 3; order } }
    | _ -> e
  in
  expect_reject "tampered read value" "rf-mismatch"
    (with_claim cert
       (Certificate.Allowed
          { w with Certificate.w_events = List.map bump w.Certificate.w_events }))

let test_mutations_forbidden () =
  (* SB is forbidden under SC: 4 run combinations, 1 rf/co candidate each. *)
  let cert = emit sb Axiomatic.Sc in
  let f =
    match cert.Certificate.claim with
    | Certificate.Forbidden f -> f
    | _ -> Alcotest.fail "SB under SC should be a forbidden claim"
  in
  check_ok "pristine SB claim" cert;
  expect_reject "forged candidate count" "count-mismatch"
    (with_claim cert (Certificate.Forbidden { Certificate.f_count = f.Certificate.f_count + 1 }));
  (* The candidate space does not depend on the model: relabelled as
     TSO, the candidate whose reads both return 0 is consistent and
     refutes the claim. *)
  expect_reject "relabelled model" "forbidden-refuted"
    { cert with Certificate.model = Axioms.Tso }

(* The recount counts a run combination as 0, without its shape, when
   [Replay.live] says no: that must be exactly when some read of the
   shape has no rf candidate.  On a live combination the checker walks
   the candidates of a forbidden claim itself, so its walk must visit
   exactly the recount's: prod |rf_candidates| x prod k! distinct,
   well-formed rf/co assignments. *)
let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

let check_walk label (shape : Replay.shape) =
  let expected =
    List.fold_left
      (fun acc r -> acc * List.length (Replay.rf_candidates shape r))
      1 shape.Replay.reads
    * List.fold_left
        (fun acc (_, _, others) -> acc * fact (List.length others))
        1 (Replay.co_locations shape)
  in
  let seen = Hashtbl.create 16 in
  (try
     Replay.iter_co shape (fun chains ->
         Checker.validate_co shape chains;
         Replay.iter_rf shape (fun rf ->
             Checker.validate_rf shape rf;
             Hashtbl.replace seen (List.sort compare rf, chains) ()))
   with Checker.Reject r ->
     Alcotest.failf "%s: the walk visits a malformed candidate: %s" label
       (Checker.reason_string r));
  if Hashtbl.length seen <> expected then
    Alcotest.failf "%s: the walk visits %d distinct candidates, the recount has %d" label
      (Hashtbl.length seen) expected

let test_live_rule () =
  let programs =
    List.map (fun (t : Test.t) -> t.Test.program) (Library.all @ Test_explore.live_corner_cases)
    @ List.concat_map
        (fun arch ->
          List.map
            (fun (g : Wmm_synth.Synth.generated) -> g.Wmm_synth.Synth.g_test.Test.program)
            (Wmm_synth.Synth.generate ~max_edges:4 arch))
        Arch.[ Armv8; Power7 ]
  in
  let live = ref 0 and total = ref 0 and branching = ref 0 in
  List.iter
    (fun (p : Program.t) ->
      List.iteri
        (fun i runs ->
          let shape = Replay.shape_of_runs p runs in
          let fed =
            List.for_all (fun r -> Replay.rf_candidates shape r <> []) shape.Replay.reads
          in
          incr total;
          if Replay.live p runs <> fed then
            Alcotest.failf "%s, run combination %d: live says %b, rf candidates say %b"
              p.Program.name i (Replay.live p runs) fed;
          if fed then begin
            incr live;
            if
              List.exists
                (fun r -> List.length (Replay.rf_candidates shape r) >= 2)
                shape.Replay.reads
            then incr branching;
            check_walk (Printf.sprintf "%s, run combination %d" p.Program.name i) shape
          end)
        (Replay.combos ~fuel:Checker.fuel p))
    programs;
  Alcotest.(check bool) "some run combinations are dead" true (!live < !total);
  Alcotest.(check bool) "some run combinations are live" true (!live > 0);
  Alcotest.(check int) "live run combinations with a read of two or more rf candidates" 23
    !branching

(* Emission decides its claim itself; a caller holding the graph
   engine's verdict turns a disagreement into an error. *)
let test_claim_agrees () =
  let v = Check.run_exhaustive Axiomatic.Sc (Check.machine_config Axiomatic.Sc) sb in
  let cert = emit sb Axiomatic.Sc in
  (match Wmm_certify.Emit.agree ~allowed:v.Check.axiomatic_allowed cert with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "matching verdict refused: %s" msg);
  let flipped = { v with Check.axiomatic_allowed = not v.Check.axiomatic_allowed } in
  match Wmm_certify.Emit.agree ~allowed:flipped.Check.axiomatic_allowed cert with
  | Ok _ -> Alcotest.fail "a certificate contradicting the verdict was accepted"
  | Error msg ->
      Alcotest.(check string) "error names both claims"
        "certificate claims forbidden, the verdict is allowed" msg

let test_mutations_minimal () =
  let strategy =
    [
      { Placement.tid = 0; at = 1; barrier = Instr.Dmb_ish };
      { Placement.tid = 1; at = 1; barrier = Instr.Dmb_ish };
    ]
  in
  let cert =
    match Wmm_certify.Emit.minimal Axiomatic.Tso sb strategy with
    | Ok cert -> cert
    | Error msg -> Alcotest.failf "minimality emission failed: %s" msg
  in
  check_ok "pristine SB minimality claim" cert;
  let m =
    match cert.Certificate.claim with
    | Certificate.Minimal m -> m
    | _ -> Alcotest.fail "expected a minimality claim"
  in
  expect_reject "out-of-range site" "site-malformed"
    (with_claim cert
       (Certificate.Minimal
          {
            m with
            Certificate.m_sites =
              List.map
                (fun (s : Certificate.site) ->
                  { s with Certificate.s_at = s.Certificate.s_at + 9 })
                m.Certificate.m_sites;
          }));
  expect_reject "dropped refutation" "refutation-missing"
    (with_claim cert
       (Certificate.Minimal
          { m with Certificate.m_refutations = List.tl m.Certificate.m_refutations }))

(* A future version and the retired one that listed the execution
   set: neither is read. *)
let test_version_guard () =
  let text = Certificate.to_string (emit sb Axiomatic.Sc) in
  let idx = String.index text '\n' in
  List.iter
    (fun header ->
      let tampered = header ^ String.sub text idx (String.length text - idx) in
      match Checker.check_string tampered with
      | Ok _ -> Alcotest.failf "%s: certificate accepted" header
      | Error r ->
          Alcotest.(check string) (header ^ ": parse reason") "parse" r.Checker.code;
          Alcotest.(check bool) (header ^ ": detail names the version") true
            (contains ~sub:"version" r.Checker.detail))
    [ "wmmcert 99"; "wmmcert 1" ]

(* --- planted bug: an explorer that forgets RMW atomicity ---------- *)

(* Both exclusives read the initial value and both store-exclusives
   succeed: forbidden by the atomicity axiom under every model.  The
   stored values are distinct and nonzero, so a chained RMW (one
   exclusive reading the other's write) cannot satisfy r1 = 0. *)
let planted =
  Test.make ~name:"planted-rmw"
    ~description:"both exclusives read init and both succeed"
    ~locations:[| "x" |]
    ~threads:
      [
        [|
          Test.addi ~dst:2 ~src:2 1;
          Test.ldxr ~dst:1 ~loc:0;
          Test.stxr ~status:0 ~src:2 ~loc:0;
        |];
        [|
          Test.addi ~dst:2 ~src:2 2;
          Test.ldxr ~dst:1 ~loc:0;
          Test.stxr ~status:0 ~src:2 ~loc:0;
        |];
      ]
    ~condition:[ ((0, 1), 0); ((0, 0), 0); ((1, 1), 0); ((1, 0), 0) ]
    ~expected:[ (Axiomatic.Sc, false) ]
    ()

(* The buggy explorer variant: consistency that waves the atomicity
   axiom through, as if RMW pairing had been dropped from the model.
   It happily "finds" a witness for the planted condition - and the
   certificate it emits carries that witness to the checker. *)
let buggy_allowed model (t : Test.t) =
  let cond = Wmm_certify.Emit.condition_of_test t in
  List.find_map
    (fun (x, o) ->
      if
        Wmm_certify.Emit.satisfies cond o
        && List.for_all (fun v -> v = "atomicity") (Axiomatic.violations model x)
      then
        Some
          {
            Certificate.model = Wmm_certify.Emit.cert_model model;
            program = t.Test.program;
            cond;
            claim = Certificate.Allowed (Wmm_certify.Emit.witness_of x o);
          }
      else None)
    (Reference.candidate_executions t.Test.program)

let instr_count (t : Test.t) =
  Array.fold_left (fun acc th -> acc + Array.length th) 0 t.Test.program.Program.threads

let test_planted_bug () =
  Alcotest.(check bool) "condition genuinely forbidden" false
    (Check.axiomatic_allowed Axiomatic.Sc planted);
  check_ok "honest forbidden certificate" (emit planted Axiomatic.Sc);
  let rejected_for_axiom (t : Test.t) =
    match buggy_allowed Axiomatic.Sc t with
    | None -> false
    | Some cert -> (
        match Checker.check cert with
        | Ok () -> false
        | Error r ->
            String.length r.Checker.code > 6 && String.sub r.Checker.code 0 6 = "axiom:")
  in
  Alcotest.(check bool) "buggy explorer's witness certificate is rejected" true
    (rejected_for_axiom planted);
  (match buggy_allowed Axiomatic.Sc planted with
  | Some cert -> expect_reject "planted bug reason" "axiom:atomicity" cert
  | None -> Alcotest.fail "buggy explorer found no witness");
  let shrunk = Wmm_synth.Conform.shrink rejected_for_axiom planted in
  Alcotest.(check bool) "shrunk test still exhibits the bug" true
    (rejected_for_axiom shrunk);
  Alcotest.(check bool) "shrinking did not grow the test" true
    (instr_count shrunk <= instr_count planted)

(* --- golden fixtures --------------------------------------------- *)

let data_path name =
  let local = Filename.concat "data" name in
  if Sys.file_exists local then local else Filename.concat "test/data" name

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_sections text =
  let sections = ref [] and header = ref None and buf = Buffer.create 1024 in
  let flush () =
    match !header with
    | None -> ()
    | Some (name, model) -> sections := (name, model, Buffer.contents buf) :: !sections
  in
  List.iter
    (fun line ->
      if String.length line > 3 && String.sub line 0 3 = "== " then begin
        flush ();
        Buffer.clear buf;
        match String.split_on_char ' ' line with
        | [ "=="; name; model; "==" ] -> header := Some (name, model)
        | _ -> Alcotest.failf "bad golden section header %S" line
      end
      else if line <> "" && !header <> None then Buffer.add_string buf (line ^ "\n"))
    (String.split_on_char '\n' text);
  flush ();
  List.rev !sections

let test_golden () =
  let sections = parse_sections (read_file (data_path "cert_golden.txt")) in
  Alcotest.(check int) "golden fixture count" (List.length Cert_golden.fixture_cases)
    (List.length sections);
  List.iter2
    (fun ((t : Test.t), model) (name, model_name, text) ->
      Alcotest.(check string) "section test name" t.Test.name name;
      Alcotest.(check string) "section model" (Axiomatic.model_name model) model_name;
      if Certificate.to_string (emit t model) <> text then
        Alcotest.failf
          "%s under %s: regenerated certificate differs from the golden fixture \
           (refresh: dune exec test/gen_cert_golden.exe > test/data/cert_golden.txt)"
          name model_name;
      match Checker.check_string text with
      | Ok _ -> ()
      | Error r ->
          Alcotest.failf "%s under %s: golden certificate rejected: %s" name model_name
            (Checker.reason_string r))
    Cert_golden.fixture_cases sections

(* Every library certificate and every bound-4 ARMv8/POWER verdict's,
   pinned by digest (refresh: dune exec test/gen_cert_golden.exe --
   --digests > test/data/cert_digests.txt), and each one accepted by
   the checker. *)
let test_digests () =
  let golden =
    String.split_on_char '\n' (read_file (data_path "cert_digests.txt"))
    |> List.filter (fun l -> l <> "")
  in
  let now = Cert_golden.digest_entries () in
  Alcotest.(check int) "digest line count" (List.length golden) (List.length now);
  List.iter2
    (fun g (n, text) ->
      if g <> n then Alcotest.failf "certificate digest differs:\n  golden %s\n  now    %s" g n;
      Option.iter
        (fun text ->
          match Checker.check_string text with
          | Ok cert -> expect_refuted n cert
          | Error r -> Alcotest.failf "%s: certificate rejected: %s" n (Checker.reason_string r))
        text)
    golden now

(* --- no certificate cap ------------------------------------------- *)

(* co-storm has 35,280 candidate executions.  Under the fixtures'
   condition (the observer reads 5, then 6) every model allows it and
   the witness certifies.  Reading 6, then 5 breaks read-read coherence
   (CoRR) under every model, so the walk is exhausted: the forbidden
   claim carries the count, and the checker walks the candidates
   itself. *)
let co_storm_corr =
  {
    Cert_golden.co_storm with
    Test.condition = [ ((3, 0), 6); ((3, 1), 5) ];
    expected = List.map (fun m -> (m, false)) Axiomatic.all_models;
  }

let test_certificate_cap () =
  List.iter
    (fun model ->
      let name = Axiomatic.model_name model in
      Alcotest.(check bool) ("co-storm CoRR forbidden under " ^ name) false
        (Check.axiomatic_allowed model co_storm_corr);
      let cert = emit co_storm_corr model in
      (match cert.Certificate.claim with
      | Certificate.Forbidden f ->
          Alcotest.(check int) ("co-storm CoRR count under " ^ name) 35280 f.Certificate.f_count
      | _ -> Alcotest.failf "co-storm CoRR under %s: not a forbidden certificate" name);
      check_ok ("co-storm CoRR under " ^ name) cert;
      let cert = emit Cert_golden.co_storm model in
      (match cert.Certificate.claim with
      | Certificate.Allowed _ -> ()
      | _ -> Alcotest.failf "co-storm under %s: not an allowed certificate" name);
      check_ok ("co-storm under " ^ name) cert)
    Axiomatic.all_models

(* --- wmm_bench check: separate-process validation ---------------- *)

(* Same resolution as test_chaos: the test binary runs from inside
   _build, the bench binary is a declared dune dependency next to it. *)
let bench_bin () =
  match Sys.getenv_opt "WMM_BENCH_BIN" with
  | Some p -> p
  | None ->
      let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
      Filename.concat (Filename.concat build_root "bin") "wmm_bench.exe"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_bench_check () =
  let dir = Filename.temp_file "wmm_certs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  write_file (Filename.concat dir "sb__SC.cert")
    (Certificate.to_string (emit sb Axiomatic.Sc));
  write_file (Filename.concat dir "mp__ARMv8.cert")
    (Certificate.to_string (emit mp Axiomatic.Arm));
  let run () =
    Sys.command
      (Printf.sprintf "%s check %s >/dev/null 2>&1"
         (Filename.quote (bench_bin ()))
         (Filename.quote dir))
  in
  Alcotest.(check int) "all certificates accepted" 0 (run ());
  let text = Certificate.to_string (emit sb Axiomatic.Sc) in
  let idx = String.index text '\n' in
  write_file (Filename.concat dir "sb__SC.cert")
    ("wmmcert 99" ^ String.sub text idx (String.length text - idx));
  Alcotest.(check int) "corrupted certificate rejected" 1 (run ())

(* --- the checker's own bound ---------------------------------------- *)

(* Forbidden claims past the checker's bounds, each refused with
   [too-large] in well under a second:
   - test_cli's BIG program: 64 runs per writer thread and 4096 for
     the observer, about 1.07e9 run combinations, refused from the run
     counts before a combination is listed;
   - 21 writes to one location: 21! coherence orders, which would wrap
     around, refused at the first product past [max_candidates];
   - seven writes and two reads of one location: 64 run combinations of
     7! = 5,040 candidates each, refused when their sum passes it. *)
let test_too_large () =
  let refused name text =
    let t0 = Sys.time () in
    (match Checker.check_string text with
    | Ok _ -> Alcotest.failf "%s: forbidden claim accepted" name
    | Error r -> Alcotest.(check string) (name ^ ": reason code") "too-large" r.Checker.code);
    let cpu = Sys.time () -. t0 in
    if cpu > 1.0 then Alcotest.failf "%s: refusing took %.2f s of CPU" name cpu
  in
  refused "BIG" (read_file (data_path "big_forbidden.cert"));
  let forbidden threads cond =
    Certificate.to_string
      {
        Certificate.model = Axioms.Sc;
        program = Program.make ~name:"oversized" ~location_names:[| "x" |] threads;
        cond;
        claim = Certificate.Forbidden { Certificate.f_count = 0 };
      }
  in
  let writes k = Array.init k (fun i -> Test_explore.st 0 (i + 1)) in
  refused "21 writes"
    (forbidden [ writes 21 ] { Certificate.c_regs = []; c_mem = [ (0, 1) ] });
  refused "64 run combinations"
    (forbidden
       [ writes 7; [| Test_explore.ld 0 0; Test_explore.ld 1 0 |] ]
       { Certificate.c_regs = [ ((1, 0), 2); ((1, 1), 1) ]; c_mem = [] })

let suite =
  [
    Alcotest.test_case "library: certify, roundtrip, check" `Quick
      test_library_certificates;
    Alcotest.test_case "machine traces replay canonically" `Quick test_machine_traces;
    Alcotest.test_case "mutations: allowed witness" `Quick test_mutations_allowed;
    Alcotest.test_case "mutations: forbidden execution set" `Quick
      test_mutations_forbidden;
    Alcotest.test_case "claim agrees with the verdict" `Quick test_claim_agrees;
    Alcotest.test_case "mutations: minimality claim" `Quick test_mutations_minimal;
    Alcotest.test_case "version guard" `Quick test_version_guard;
    Alcotest.test_case "planted bug: RMW atomicity dropped" `Quick test_planted_bug;
    Alcotest.test_case "golden certificate fixtures" `Quick test_golden;
    Alcotest.test_case "certificate digests" `Quick test_digests;
    Alcotest.test_case "certificate cap: co-storm" `Quick test_certificate_cap;
    Alcotest.test_case "wmm_bench check (separate process)" `Quick test_bench_check;
    Alcotest.test_case "recount: live rule matches rf candidates" `Quick test_live_rule;
    Alcotest.test_case "checker bound: oversized program refused" `Quick test_too_large;
  ]
