open Wmm_isa
open Wmm_cert
open Wmm_model
open Wmm_litmus
open Wmm_analysis

(* Certificate emission: the untrusted half of proof-carrying
   verdicts.  This module sits on the explorer's side of the trust
   boundary - it uses {!Wmm_model.Enumerate} to find witnesses and to
   materialize exhaustive execution sets - and packages them into
   {!Wmm_cert.Certificate} values that the independent checker
   revalidates from scratch.  A bug here (or anywhere in the
   exploration core) produces certificates the checker rejects; it
   cannot produce a wrongly-accepted verdict.  The claim of a litmus
   certificate comes from emission's own witness walk, not from the
   graph engine, so callers that print a verdict beside it compare
   the two ({!agree}). *)

let default_max_candidates = 20_000

let cert_model (m : Axiomatic.model) =
  match Axioms.model_of_name (Axiomatic.model_name m) with
  | Some m -> m
  | None -> assert false

let condition_of_test (t : Test.t) =
  { Certificate.c_regs = t.Test.condition; c_mem = t.Test.mem_condition }

let satisfies (cond : Certificate.condition) (o : Enumerate.outcome) =
  Test.condition_matches cond.Certificate.c_regs o.Enumerate.registers
  && List.for_all
       (fun (l, v) ->
         match List.assoc_opt l o.Enumerate.memory with
         | Some v' -> v' = v
         | None -> v = 0)
       cond.Certificate.c_mem

(* ------------------------------------------------------------------ *)
(* Execution -> certificate conversion.                                *)
(* ------------------------------------------------------------------ *)

(* The canonical trace representation carries the rmw flag on the
   write itself (the checker's replay needs it to resolve
   store-exclusive branching deterministically); the explorer keeps it
   as a relation. *)
let events_of (x : Execution.t) =
  let rmw_targets = List.map snd (Bitrel.to_list x.Execution.rmw) in
  Array.to_list
    (Array.map
       (fun (e : Event.t) ->
         let action =
           match e.Event.action with
           | Event.Read { loc; value; order } -> Trace.Read { loc; value; order }
           | Event.Write { loc; value; order } ->
               Trace.Write { loc; value; order; rmw = List.mem e.Event.id rmw_targets }
           | Event.Fence b -> Trace.Fence b
         in
         { Trace.id = e.Event.id; tid = e.Event.tid; po = e.Event.po_index; action })
       x.Execution.events)

let co_chains (x : Execution.t) =
  let by_loc = Hashtbl.create 8 in
  List.iter
    (fun w ->
      match Event.loc (Execution.event x w) with
      | Some l ->
          Hashtbl.replace by_loc l
            (w :: Option.value ~default:[] (Hashtbl.find_opt by_loc l))
      | None -> ())
    (Execution.writes x);
  Hashtbl.fold
    (fun l ws acc ->
      let pred_count w =
        List.length (List.filter (fun w' -> Bitrel.mem x.Execution.co w' w) ws)
      in
      let chain =
        List.sort (fun a b -> compare (pred_count a) (pred_count b)) ws
      in
      (l, chain) :: acc)
    by_loc []
  |> List.sort compare

let witness_of (x : Execution.t) (o : Enumerate.outcome) =
  {
    Certificate.w_events = events_of x;
    w_rf = Bitrel.to_list x.Execution.rf;
    w_co = co_chains x;
    w_regs = o.Enumerate.registers;
    w_mem = o.Enumerate.memory;
  }

let candidate_of (x : Execution.t) =
  { Certificate.k_rf = Bitrel.to_list x.Execution.rf; k_co = co_chains x }

(* ------------------------------------------------------------------ *)
(* Claim builders.                                                     *)
(* ------------------------------------------------------------------ *)

(* The first candidate in the witness order that satisfies the
   condition and the model allows, if any. *)
let first_witness model (program : Program.t) cond =
  match Enumerate.first_witness model program (satisfies cond) with
  | found -> Ok (Option.map (fun (x, o) -> witness_of x o) found)
  | exception Failure msg -> Error msg

let find_witness model program cond =
  Result.bind (first_witness model program cond)
    (Option.to_result ~none:"no consistent execution satisfies the condition")

(* Exhaustive execution set, grouped into per-run-combination combos.
   The reference enumeration shares one physical event array per
   combo, which is exactly the grouping the certificate needs. *)
let forbidden_body ?(max_candidates = default_max_candidates) model
    (program : Program.t) cond =
  match Enumerate.Reference.candidate_executions program with
  | exception Failure msg -> Error msg
  | candidates ->
      let total = List.length candidates in
      if total > max_candidates then
        Error
          (Printf.sprintf "certificate too large: %d candidate executions (cap %d)"
             total max_candidates)
      else begin
        let refuted =
          List.exists
            (fun (x, o) -> satisfies cond o && Axiomatic.consistent model x)
            candidates
        in
        if refuted then Error "the condition is allowed, not forbidden"
        else begin
          (* Group by the physically shared skeleton, preserving combo
             order.  Every candidate of a combo shares the events and
             the rmw pairing (both are determined by the runs), so the
             first execution stands in for the combo's trace. *)
          let combos = ref [] in
          List.iter
            (fun ((x : Execution.t), _) ->
              match !combos with
              | (head, cands) :: rest
                when head.Execution.events == x.Execution.events ->
                  combos := (head, candidate_of x :: cands) :: rest
              | _ -> combos := (x, [ candidate_of x ]) :: !combos)
            candidates;
          let f_combos =
            List.rev_map
              (fun (head, cands) ->
                { Certificate.x_events = events_of head; x_candidates = List.rev cands })
              !combos
          in
          Ok { Certificate.f_count = total; f_combos }
        end
      end

let certificate model program cond claim =
  { Certificate.model = cert_model model; program; cond; claim }

let allowed model (program : Program.t) cond =
  Result.map
    (fun w -> certificate model program cond (Certificate.Allowed w))
    (find_witness model program cond)

let forbidden ?max_candidates model (program : Program.t) cond =
  Result.map
    (fun body -> certificate model program cond (Certificate.Forbidden body))
    (forbidden_body ?max_candidates model program cond)

(* ------------------------------------------------------------------ *)
(* Minimality claims.                                                  *)
(* ------------------------------------------------------------------ *)

let site_of (s : Placement.site) =
  { Certificate.s_tid = s.Placement.tid; s_at = s.Placement.at; s_barrier = s.Placement.barrier }

let minimal ?max_candidates model (t : Test.t) (strategy : Placement.strategy) =
  let cond = condition_of_test t in
  let ( let* ) = Result.bind in
  let fenced = Placement.apply t.Test.program strategy in
  let* body = forbidden_body ?max_candidates model fenced cond in
  let* refutations =
    List.fold_left
      (fun acc idx ->
        let* acc = acc in
        let weaker = List.filteri (fun i _ -> i <> idx) strategy in
        let weaker_program = Placement.apply t.Test.program weaker in
        match find_witness model weaker_program cond with
        | Ok w -> Ok ((idx, w) :: acc)
        | Error msg ->
            Error
              (Printf.sprintf "dropping site %d still forbids the condition (%s)" idx
                 msg))
      (Ok [])
      (List.init (List.length strategy) Fun.id)
  in
  Ok
    (certificate model t.Test.program cond
       (Certificate.Minimal
          {
            Certificate.m_sites = List.map site_of strategy;
            m_fenced = body;
            m_refutations = List.rev refutations;
          }))

(* ------------------------------------------------------------------ *)
(* Verdict-level entry point.                                          *)
(* ------------------------------------------------------------------ *)

let litmus ?max_candidates model (t : Test.t) =
  let cond = condition_of_test t in
  let program = t.Test.program in
  match first_witness model program cond with
  | Error msg -> Error msg
  | Ok (Some w) -> Ok (certificate model program cond (Certificate.Allowed w))
  | Ok None -> forbidden ?max_candidates model program cond

(* A certificate printed or served beside a verdict must claim what
   the verdict says; a disagreement between the graph engine and the
   witness walk becomes an error naming both claims. *)
let agree ~allowed (cert : Certificate.t) =
  let claim = Certificate.claim_name cert.Certificate.claim in
  let verdict = if allowed then "allowed" else "forbidden" in
  if claim = verdict then Ok cert
  else Error (Printf.sprintf "certificate claims %s, the verdict is %s" claim verdict)
