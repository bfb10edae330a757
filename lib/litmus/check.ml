open Wmm_model
open Wmm_machine

type verdict = {
  test : Test.t;
  model : Axiomatic.model;
  axiomatic_allowed : bool;
  expected : bool option;
  observed : bool;
}

let outcome_satisfies (test : Test.t) ~registers ~memory =
  Test.condition_matches test.Test.condition registers
  && List.for_all
       (fun (l, v) ->
         match List.assoc_opt l memory with Some v' -> v = v' | None -> v = 0)
       test.Test.mem_condition

let axiomatic_allowed model (test : Test.t) =
  (* Early-exit search: stops at the first consistent witness instead
     of enumerating every allowed outcome. *)
  Enumerate.exists_outcome model test.Test.program (fun (o : Enumerate.outcome) ->
      outcome_satisfies test ~registers:o.Enumerate.registers ~memory:o.Enumerate.memory)

let machine_config = function
  | Axiomatic.Sc -> Relaxed.sc_config
  | Axiomatic.Tso -> Relaxed.tso_config
  | Axiomatic.Arm | Axiomatic.Power -> Relaxed.relaxed_config
  (* No machine implements the language tier; the SC machine's
     outcomes are a sound subset of the RC11-allowed set. *)
  | Axiomatic.Rc11 -> Relaxed.sc_config

let models_for ~parsed test =
  List.filter
    (fun m ->
      Test.expected_under test m <> None
      || (parsed && (m = Axiomatic.Arm || m = Axiomatic.Power)))
    Axiomatic.all_models

let machine_observes config test =
  Relaxed.exists_outcome config test.Test.program ~registers:test.Test.condition
    ~memory:test.Test.mem_condition

let run_exhaustive model config test =
  (* The machine search comes first: a program too large for it fails
     before the axiomatic search starts. *)
  let observed = machine_observes config test in
  {
    test;
    model;
    axiomatic_allowed = axiomatic_allowed model test;
    expected = Test.expected_under test model;
    observed;
  }

let sound v =
  let operational_ok = (not v.observed) || v.axiomatic_allowed in
  let annotation_ok =
    match v.expected with None -> true | Some e -> e = v.axiomatic_allowed
  in
  operational_ok && annotation_ok

let describe v =
  Printf.sprintf "%-22s %-6s axiomatic=%-9s observed=%s%s" v.test.Test.name
    (Axiomatic.model_name v.model)
    (if v.axiomatic_allowed then "allowed" else "forbidden")
    (if v.observed then "yes" else "no")
    (match v.expected with
    | Some e when e <> v.axiomatic_allowed -> "  [MISMATCH vs annotation]"
    | _ when v.observed && not v.axiomatic_allowed -> "  [FORBIDDEN OBSERVED]"
    | _ -> "")
