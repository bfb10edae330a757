open Wmm_model
open Wmm_litmus
module Task = Wmm_engine.Task
module Engine = Wmm_engine.Engine
module Conform = Wmm_synth.Conform
module Verify = Wmm_analysis.Verify

(* Compilation containment: the soundness statement of the language
   tier.  For every language-level test [t] and scheme [s],

      outcomes(hw_model(arch s), compile s t)
        SUBSET  outcomes(RC11, t)

   i.e. compiling can only restrict behaviour, never invent an
   outcome RC11 forbids.  The converse inclusion is intentionally
   absent — RC11 is weaker than any one compiled target (e.g. it
   allows IRIW with relaxed writes that ARM's multicopy atomicity
   forbids).  Outcome sets are directly comparable because the
   compiler inserts only barriers and register-free branches: the
   register and memory footprints of source and target coincide. *)

(* Marshal-stable task result (persisted by cache and journal). *)
type check =
  | C_ok of int * int  (** compiled outcomes, RC11 outcomes *)
  | C_skip of string
  | C_fail of string

let hw_model scheme = Axiomatic.model_for_arch (Compile.scheme_arch scheme)

let escaped_outcomes rc11 hw =
  List.filter
    (fun o -> not (List.exists (fun o' -> Enumerate.compare_outcome o o' = 0) rc11))
    hw

let contain_task scheme (t : Test.t) =
  let key =
    Printf.sprintf "lang/contain/v1|%s|%s" (Compile.scheme_name scheme)
      (Verify.test_digest t)
  in
  let label = Printf.sprintf "contain %s %s" (Compile.scheme_name scheme) t.Test.name in
  Task.pure ~key ~label (fun () ->
      let src = t.Test.program in
      let compiled = Compile.compile_program scheme src in
      match
        ( Enumerate.allowed_outcomes Axiomatic.Rc11 src,
          Enumerate.allowed_outcomes (hw_model scheme) compiled )
      with
      | exception Failure msg -> C_skip msg
      | rc11, hw -> (
          match escaped_outcomes rc11 hw with
          | [] -> C_ok (List.length hw, List.length rc11)
          | escaped ->
              C_fail
                (Printf.sprintf
                   "%d compiled outcome(s) escape RC11 (%d vs %d): %s"
                   (List.length escaped) (List.length hw) (List.length rc11)
                   (String.concat " | "
                      (List.map (Enumerate.outcome_to_string src) escaped)))))

let check_of_task task = task.Task.run (Task.rng_for task.Task.key)

type report = {
  schemes : Compile.scheme list;
  tests : int;
  checks : int;
  skipped : int;
  disagreements : Conform.disagreement list;
}

let run ?(schemes = Compile.all_schemes) ~engine tests =
  let batch = Engine.Batch.create () in
  let cells =
    List.concat_map
      (fun t ->
        List.map (fun s -> (t, s, Engine.Batch.add batch (contain_task s t))) schemes)
      tests
  in
  Engine.Batch.run engine batch;
  let skipped = ref 0 in
  let disagreements = ref [] in
  List.iter
    (fun (t, s, get) ->
      let still_fails t' =
        match check_of_task (contain_task s t') with
        | C_fail _ -> true
        | C_ok _ | C_skip _ -> false
        | exception _ -> false
      in
      let disagree detail =
        let shrunk = Conform.shrink still_fails t in
        disagreements :=
          {
            Conform.layer = Conform.Containment;
            model = Some (hw_model s);
            test = t;
            shrunk;
            detail = Printf.sprintf "[%s] %s" (Compile.scheme_name s) detail;
          }
          :: !disagreements
      in
      match Engine.get (get ()) with
      | C_ok _ -> ()
      | C_skip _ -> incr skipped
      | C_fail detail -> disagree detail
      | exception Failure msg -> disagree ("task failed: " ^ msg))
    cells;
  {
    schemes;
    tests = List.length tests;
    checks = List.length cells;
    skipped = !skipped;
    disagreements = List.rev !disagreements;
  }

let render r =
  let b = Buffer.create 512 in
  Printf.bprintf b "compilation containment: %d tests x %d schemes (%s)\n" r.tests
    (List.length r.schemes)
    (String.concat ", " (List.map Compile.scheme_name r.schemes));
  Printf.bprintf b "  checks: %d (%d skipped)\n" r.checks r.skipped;
  (match r.disagreements with
  | [] -> Buffer.add_string b "  violations: none\n"
  | ds ->
      Printf.bprintf b "  violations: %d\n" (List.length ds);
      List.iter
        (fun (d : Conform.disagreement) ->
          Printf.bprintf b "\n[%s] %s\n  %s\n"
            (Conform.layer_name d.Conform.layer)
            d.Conform.test.Test.name d.Conform.detail;
          Printf.bprintf b "  shrunk to %d instruction(s) over %d thread(s)\n"
            (Array.fold_left
               (fun acc th -> acc + Array.length th)
               0 d.Conform.shrunk.Test.program.Wmm_isa.Program.threads)
            (Array.length d.Conform.shrunk.Test.program.Wmm_isa.Program.threads))
        ds);
  Buffer.contents b
