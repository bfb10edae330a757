open Wmm_isa
open Wmm_model
open Wmm_litmus
module Task = Wmm_engine.Task
module Engine = Wmm_engine.Engine
module Relaxed = Wmm_machine.Relaxed
module Infer = Wmm_analysis.Infer
module Verify = Wmm_analysis.Verify

type layer = Explore | Machine | Inference | Containment | Certificate

let layer_name = function
  | Explore -> "explore-vs-oracle"
  | Machine -> "machine-within-model"
  | Inference -> "fence-inference"
  | Containment -> "compilation-containment"
  | Certificate -> "certificate"

type disagreement = {
  layer : layer;
  model : Axiomatic.model option;
  test : Test.t;
  shrunk : Test.t;
  detail : string;
}

type report = {
  arch : Arch.t;
  tests : int;
  explore_checks : int;
  machine_checks : int;
  machine_skipped : int;
  infer_checks : int;
  cert_checks : int;
  cert_skipped : int;
  disagreements : disagreement list;
}

type oracle = {
  oracle_id : string;
  outcomes : Axiomatic.model -> Program.t -> Enumerate.outcome list;
}

let walk_oracle = { oracle_id = "walk/v1"; outcomes = Enumerate.filtered_outcomes }

type config = {
  models : Axiomatic.model list option;
  oracle : oracle;
  machine : bool;
  infer_limit : int;
  certificates : bool;
}

let default_config =
  {
    models = None;
    oracle = walk_oracle;
    machine = true;
    infer_limit = 48;
    certificates = true;
  }

(* Task result for the explore and machine layers.  Must stay
   marshal-stable: it is what the cache and journal persist. *)
type check = C_ok | C_skip of string | C_fail of string

(* ------------------------------------------------------------------ *)
(* Layer tasks                                                        *)
(* ------------------------------------------------------------------ *)

let sorted_outcomes outs = List.sort_uniq Enumerate.compare_outcome outs

let outcome_set_diff p a b =
  let only_in tag xs ys =
    match
      List.filter
        (fun o -> not (List.exists (fun o' -> Enumerate.compare_outcome o o' = 0) ys))
        xs
    with
    | [] -> []
    | extra ->
        [
          Printf.sprintf "only %s: %s" tag
            (String.concat " | " (List.map (Enumerate.outcome_to_string p) extra));
        ]
  in
  String.concat "; " (only_in "search" a b @ only_in "oracle" b a)

let explore_task oracle model (t : Test.t) =
  (* v3: one exploration engine, so the key no longer names one. *)
  let key =
    Printf.sprintf "conform/explore/v3|%s|%s|%s" oracle.oracle_id
      (Axiomatic.model_name model) (Verify.test_digest t)
  in
  let label = Printf.sprintf "xcheck %s %s" (Axiomatic.model_name model) t.Test.name in
  Task.pure ~key ~label (fun () ->
      let p = t.Test.program in
      match
        ( sorted_outcomes (Enumerate.allowed_outcomes model p),
          sorted_outcomes (oracle.outcomes model p) )
      with
      | exception Failure msg -> C_skip msg
      | fast, slow ->
          if
            List.length fast = List.length slow
            && List.for_all2 (fun a b -> Enumerate.compare_outcome a b = 0) fast slow
          then C_ok
          else
            C_fail
              (Printf.sprintf "search %d vs oracle %d outcomes: %s" (List.length fast)
                 (List.length slow) (outcome_set_diff p fast slow)))

(* The machine/model pairings mirror the litmus checker: each machine
   strength is compared against the model it is meant to refine. *)
let machine_pairs arch =
  [
    (Axiomatic.Sc, Relaxed.sc_config, "sc");
    (Axiomatic.Tso, Relaxed.tso_config, "tso");
    (Axiomatic.model_for_arch arch, Relaxed.relaxed_config, "relaxed");
  ]

let machine_max_states = 200_000

let machine_task model cfg cfg_id (t : Test.t) =
  let key =
    Printf.sprintf "conform/machine/v1|%s|%s|%s" cfg_id (Axiomatic.model_name model)
      (Verify.test_digest t)
  in
  let label = Printf.sprintf "machine %s %s" (Axiomatic.model_name model) t.Test.name in
  Task.pure ~key ~label (fun () ->
      let p = t.Test.program in
      match Relaxed.enumerate ~max_states:machine_max_states cfg p with
      | exception Failure msg -> C_skip msg
      | outs -> (
          let to_enum (o : Relaxed.outcome) =
            { Enumerate.registers = o.Relaxed.registers; memory = o.Relaxed.memory }
          in
          let escape =
            List.find_opt
              (fun o -> not (Enumerate.outcome_allowed model p (to_enum o)))
              outs
          in
          match escape with
          | None -> C_ok
          | Some o ->
              C_fail
                (Printf.sprintf "machine reaches %s, forbidden by the model"
                   (Enumerate.outcome_to_string p (to_enum o)))))

(* Certificate layer: every axiomatic verdict must certify, the
   certificate must claim what the graph engine decided, and it must
   survive serialization and the independent checker.  A rejection
   means the explorer and the checker's from-scratch revalidation of
   the same claim disagree - the strongest cross-check in the suite,
   since the two sides share no code beyond the ISA types. *)
let cert_task model (t : Test.t) =
  (* v2: forbidden certificates carry their count, not the execution
     set. *)
  let key =
    Printf.sprintf "conform/cert/v2|%s|%s" (Axiomatic.model_name model)
      (Verify.test_digest t)
  in
  let label = Printf.sprintf "certify %s %s" (Axiomatic.model_name model) t.Test.name in
  Task.pure ~key ~label (fun () ->
      match Wmm_certify.Emit.litmus model t with
      | Error msg -> C_skip msg
      | exception Failure msg -> C_skip msg
      | Ok cert -> (
          match Wmm_certify.Emit.agree ~allowed:(Check.axiomatic_allowed model t) cert with
          | Error msg -> C_fail msg
          | Ok cert -> (
              match Wmm_cert.Checker.check_string (Wmm_cert.Certificate.to_string cert) with
              | Ok _ -> C_ok
              | Error r ->
                  C_fail ("certificate rejected: " ^ Wmm_cert.Checker.reason_string r))))

let check_of_task task = task.Task.run (Task.rng_for task.Task.key)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

let remake (t : Test.t) ~threads ~condition ~mem_condition =
  match
    Test.make ~name:t.Test.name ~description:t.Test.description
      ~locations:t.Test.program.Program.location_names
      ~init:t.Test.program.Program.init ~threads ~condition ~mem_condition ~expected:[]
      ()
  with
  | t -> Some t
  | exception Invalid_argument _ -> None

(* All one-step reductions of a test, most aggressive first: drop a
   whole thread, drop one instruction, drop a condition conjunct. *)
let reductions (t : Test.t) =
  let p = t.Test.program in
  let threads = Array.to_list p.Program.threads in
  let nthreads = List.length threads in
  let drop_thread tid =
    if nthreads <= 1 then None
    else
      let threads' = List.filteri (fun i _ -> i <> tid) threads in
      let condition =
        List.filter_map
          (fun (((i, r), v) : (int * Instr.reg) * Instr.value) ->
            if i = tid then None else Some (((if i > tid then i - 1 else i), r), v))
          t.Test.condition
      in
      remake t ~threads:threads' ~condition ~mem_condition:t.Test.mem_condition
  in
  let drop_instr tid idx =
    let thread = p.Program.threads.(tid) in
    (* Nonzero branch offsets would silently retarget when the listing
       shifts; leave such threads to whole-thread removal. *)
    let has_real_branch =
      Array.exists
        (function
          | Instr.Cbnz { offset; _ } | Instr.Cbz { offset; _ } -> offset <> 0
          | _ -> false)
        thread
    in
    if has_real_branch then None
    else
      let thread' =
        Array.of_list (List.filteri (fun i _ -> i <> idx) (Array.to_list thread))
      in
      let written r = Array.exists (fun i -> Instr.output_reg i = Some r) thread' in
      let condition =
        List.filter
          (fun (((i, r), _) : (int * Instr.reg) * Instr.value) -> i <> tid || written r)
          t.Test.condition
      in
      let threads' = List.mapi (fun i th -> if i = tid then thread' else th) threads in
      remake t ~threads:threads' ~condition ~mem_condition:t.Test.mem_condition
  in
  let drop_cond idx =
    let condition = List.filteri (fun i _ -> i <> idx) t.Test.condition in
    remake t ~threads ~condition ~mem_condition:t.Test.mem_condition
  in
  let drop_mem idx =
    let mem_condition = List.filteri (fun i _ -> i <> idx) t.Test.mem_condition in
    remake t ~threads ~condition:t.Test.condition ~mem_condition
  in
  List.filter_map Fun.id
    (List.init nthreads drop_thread
    @ List.concat
        (List.mapi
           (fun tid th -> List.init (Array.length th) (fun i -> drop_instr tid i))
           threads)
    @ List.init (List.length t.Test.condition) drop_cond
    @ List.init (List.length t.Test.mem_condition) drop_mem)

let shrink still_fails t =
  (* The budget bounds predicate evaluations, not depth: shrinking is
     best-effort and must terminate even on pathological batteries. *)
  let budget = ref 200 in
  let rec go t =
    match
      List.find_opt
        (fun t' ->
          decr budget;
          !budget >= 0 && still_fails t')
        (reductions t)
    with
    | Some t' when !budget > 0 -> go t'
    | _ -> t
  in
  go t

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) ~engine ~arch tests =
  let models =
    match config.models with Some ms -> ms | None -> Synth.verdict_models arch
  in
  let batch = Engine.Batch.create () in
  let explore =
    List.concat_map
      (fun t ->
        List.map
          (fun m ->
            (t, m, Engine.Batch.add batch (explore_task config.oracle m t)))
          models)
      tests
  in
  let machine =
    if not config.machine then []
    else
      List.concat_map
        (fun t ->
          List.map
            (fun (m, cfg, cfg_id) ->
              (t, m, cfg, cfg_id, Engine.Batch.add batch (machine_task m cfg cfg_id t)))
            (machine_pairs arch))
        tests
  in
  let certs =
    if not config.certificates then []
    else
      List.concat_map
        (fun t -> List.map (fun m -> (t, m, Engine.Batch.add batch (cert_task m t))) models)
        tests
  in
  Engine.Batch.run engine batch;
  let disagreements = ref [] in
  let disagree layer model test still_fails detail =
    let shrunk = shrink still_fails test in
    disagreements := { layer; model; test; shrunk; detail } :: !disagreements
  in
  List.iter
    (fun (t, m, get) ->
      let still_fails t' =
        match check_of_task (explore_task config.oracle m t') with
        | C_fail _ -> true
        | C_ok | C_skip _ -> false
        | exception _ -> false
      in
      match Engine.get (get ()) with
      | C_ok | C_skip _ -> ()
      | C_fail detail -> disagree Explore (Some m) t still_fails detail
      | exception Failure msg ->
          disagree Explore (Some m) t (fun _ -> false) ("task failed: " ^ msg))
    explore;
  let cert_ran = ref 0 and cert_skipped = ref 0 in
  List.iter
    (fun (t, m, get) ->
      let still_fails t' =
        match check_of_task (cert_task m t') with
        | C_fail _ -> true
        | C_ok | C_skip _ -> false
        | exception _ -> false
      in
      match Engine.get (get ()) with
      | C_ok -> incr cert_ran
      | C_skip _ -> incr cert_skipped
      | C_fail detail ->
          incr cert_ran;
          disagree Certificate (Some m) t still_fails detail
      | exception Failure msg ->
          disagree Certificate (Some m) t (fun _ -> false) ("task failed: " ^ msg))
    certs;
  let machine_ran = ref 0 and machine_skipped = ref 0 in
  List.iter
    (fun (t, m, cfg, cfg_id, get) ->
      let still_fails t' =
        match check_of_task (machine_task m cfg cfg_id t') with
        | C_fail _ -> true
        | C_ok | C_skip _ -> false
        | exception _ -> false
      in
      match Engine.get (get ()) with
      | C_ok -> incr machine_ran
      | C_skip _ -> incr machine_skipped
      | C_fail detail ->
          incr machine_ran;
          disagree Machine (Some m) t still_fails detail
      | exception Failure msg ->
          disagree Machine (Some m) t (fun _ -> false) ("task failed: " ^ msg))
    machine;
  (* Inference layer: the analysis pipeline itself fans out through
     the same engine; cap the battery since minimisation re-verifies
     many placements per test. *)
  let infer_battery = List.filteri (fun i _ -> i < config.infer_limit) tests in
  let infer_rows =
    if infer_battery = [] then []
    else Infer.analyze_all ~with_cost:false ~engine ~arch infer_battery
  in
  let infer_fails (t : Test.t) =
    match
      Infer.analyze_all ~with_cost:false ~engine:(Engine.sequential ()) ~arch [ t ]
    with
    | [ { Infer.status = Infer.Unfixed _; _ } ] -> true
    | [ { Infer.status = Infer.Inferred i; _ } ] -> not i.Infer.witnesses_ok
    | _ -> false
    | exception _ -> false
  in
  List.iter
    (fun (row : Infer.row) ->
      let bad detail =
        disagree Inference None row.Infer.test infer_fails detail
      in
      match row.Infer.status with
      | Infer.Unfixed msg -> bad ("inference unfixed: " ^ msg)
      | Infer.Inferred i when not i.Infer.witnesses_ok ->
          bad "minimality witnesses failed re-verification"
      | _ -> ())
    infer_rows;
  {
    arch;
    tests = List.length tests;
    explore_checks = List.length explore;
    machine_checks = !machine_ran;
    machine_skipped = !machine_skipped;
    infer_checks = List.length infer_rows;
    cert_checks = !cert_ran;
    cert_skipped = !cert_skipped;
    disagreements = List.rev !disagreements;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "conformance %s: %d tests\n" (Arch.name r.arch) r.tests;
  Printf.bprintf b "  explore-vs-oracle checks: %d\n" r.explore_checks;
  Printf.bprintf b "  machine-within-model checks: %d (%d skipped)\n" r.machine_checks
    r.machine_skipped;
  Printf.bprintf b "  fence-inference checks: %d\n" r.infer_checks;
  Printf.bprintf b "  certificate checks: %d (%d skipped)\n" r.cert_checks
    r.cert_skipped;
  (match r.disagreements with
  | [] -> Buffer.add_string b "  disagreements: none\n"
  | ds ->
      Printf.bprintf b "  disagreements: %d\n" (List.length ds);
      List.iter
        (fun d ->
          Printf.bprintf b "\n[%s%s] %s\n  %s\n" (layer_name d.layer)
            (match d.model with
            | Some m -> "/" ^ Axiomatic.model_name m
            | None -> "")
            d.test.Test.name d.detail;
          Printf.bprintf b "  shrunk to:\n";
          String.split_on_char '\n' (Parse.to_text ~arch:r.arch d.shrunk)
          |> List.iter (fun line -> Printf.bprintf b "    %s\n" line))
        ds);
  Buffer.contents b
