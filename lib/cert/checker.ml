open Wmm_isa

(* The independent certificate checker: the trust anchor of the whole
   verdict pipeline.  Given a parsed {!Certificate.t} it revalidates
   the claim from first principles - thread replay, canonical event
   layout, well-formedness of rf/co, the model's axioms
   ({!Axioms}), final-state recomputation, and (for forbidden
   verdicts) an rf/co candidate-space recount from the program alone.
   Nothing from a certificate is trusted: dependencies, register
   values and candidate counts are always recomputed. *)

type reason = { code : string; detail : string }

let reason_string r = r.code ^ ": " ^ r.detail

exception Reject of reason

let reject code fmt = Printf.ksprintf (fun detail -> raise (Reject { code; detail })) fmt

let fuel = 4096

(* Condition semantics, identical to the litmus checker's: registers
   must be present with the exact value; absent memory locations read
   as their 0 default. *)
let cond_satisfied (cond : Certificate.condition) ~regs ~mem =
  List.for_all
    (fun (k, v) -> match List.assoc_opt k regs with Some v' -> v = v' | None -> false)
    cond.Certificate.c_regs
  && List.for_all
       (fun (l, v) ->
         match List.assoc_opt l mem with Some v' -> v = v' | None -> v = 0)
       cond.Certificate.c_mem

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

(* ------------------------------------------------------------------ *)
(* rf / co validation against a replayed shape.                        *)
(* ------------------------------------------------------------------ *)

let validate_rf (shape : Replay.shape) rf_pairs =
  let n = Array.length shape.Replay.events in
  List.iter
    (fun (w, r) ->
      if w < 0 || w >= n || r < 0 || r >= n then reject "rf-dangling" "rf edge (%d,%d) out of range" w r;
      let ew = shape.Replay.events.(w) and er = shape.Replay.events.(r) in
      if not (Trace.is_write ew) then reject "rf-mismatch" "rf source %d is not a write" w;
      if not (Trace.is_read er) then reject "rf-mismatch" "rf target %d is not a read" r;
      if not (Trace.same_loc ew er) then
        reject "rf-mismatch" "rf edge (%d,%d) relates different locations" w r;
      if Trace.value ew <> Trace.value er then
        reject "rf-mismatch" "rf edge (%d,%d) relates different values" w r)
    rf_pairs;
  List.iter
    (fun r ->
      match List.filter (fun (_, r') -> r' = r) rf_pairs with
      | [ _ ] -> ()
      | [] -> reject "rf-missing" "read %d has no rf source" r
      | _ -> reject "rf-mismatch" "read %d has multiple rf sources" r)
    shape.Replay.reads;
  if List.length rf_pairs <> List.length shape.Replay.reads then
    reject "rf-dangling" "rf has %d edges for %d reads" (List.length rf_pairs)
      (List.length shape.Replay.reads)

let validate_co (shape : Replay.shape) chains =
  let locs = List.map (fun (l, _, _) -> l) (Replay.co_locations shape) in
  if List.sort compare (List.map fst chains) <> List.sort compare locs then
    reject "co-malformed" "co chains do not cover exactly the locations";
  List.iter
    (fun (l, init_id, others) ->
      match List.assoc_opt l chains with
      | None -> reject "co-malformed" "location %d has no chain" l
      | Some [] -> reject "co-malformed" "location %d has an empty chain" l
      | Some (first :: rest) ->
          if first <> init_id then
            reject "co-malformed" "location %d: chain does not start at the init write" l;
          if List.sort compare rest <> List.sort compare others then
            reject "co-malformed"
              "location %d: chain is not a permutation of the location's writes" l)
    (Replay.co_locations shape)

let rel_of_chains n chains =
  let co = Rel.create n in
  List.iter
    (fun (_, chain) ->
      let rec pairs = function
        | [] | [ _ ] -> ()
        | x :: rest ->
            List.iter (fun y -> Rel.add co x y) rest;
            pairs rest
      in
      pairs chain)
    chains;
  co

(* ------------------------------------------------------------------ *)
(* Witness validation.                                                 *)
(* ------------------------------------------------------------------ *)

(* Replay the witness's threads, rebuild the canonical shape from the
   replayed runs and demand it match the claimed events exactly.
   Returns the shape and the replayed final state. *)
let replay_witness (program : Program.t) (w : Certificate.witness) =
  let nthreads = Array.length program.Program.threads in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.tid <> Trace.init_tid && (e.Trace.tid < 0 || e.Trace.tid >= nthreads)
      then reject "events-malformed" "event %d names thread %d" e.Trace.id e.Trace.tid)
    w.Certificate.w_events;
  let thread_actions tid =
    List.filter (fun (e : Trace.event) -> e.Trace.tid = tid) w.Certificate.w_events
    |> List.sort (fun (a : Trace.event) b -> compare (a.Trace.po, a.Trace.id) (b.Trace.po, b.Trace.id))
    |> List.map (fun (e : Trace.event) -> e.Trace.action)
  in
  let runs =
    Array.init nthreads (fun tid ->
        match Replay.replay_thread ~fuel program.Program.threads.(tid) (thread_actions tid) with
        | Ok run -> run
        | Error msg -> reject "replay-mismatch" "thread %d: %s" tid msg
        | exception Replay.Fuel -> reject "replay-fuel" "thread %d exhausted replay fuel" tid)
  in
  let shape = Replay.shape_of_runs program runs in
  let claimed = Array.of_list w.Certificate.w_events in
  if Array.length claimed <> Array.length shape.Replay.events then
    reject "events-mismatch" "claimed %d events, replay produced %d"
      (Array.length claimed)
      (Array.length shape.Replay.events);
  Array.iteri
    (fun i (e : Trace.event) ->
      if claimed.(i) <> e then
        reject "events-mismatch" "event %d differs from the canonical replay (%s vs %s)" i
          (Trace.event_line claimed.(i))
          (Trace.event_line e))
    shape.Replay.events;
  (shape, runs)

let check_witness model (program : Program.t) cond (w : Certificate.witness) =
  let shape, runs = replay_witness program w in
  validate_rf shape w.Certificate.w_rf;
  validate_co shape w.Certificate.w_co;
  let n = Array.length shape.Replay.events in
  let rf = Rel.of_list n (List.map (fun (a, b) -> (a, b)) w.Certificate.w_rf) in
  let co = rel_of_chains n w.Certificate.w_co in
  (match Axioms.violations model (Axioms.ctx_of_shape shape) ~rf ~co with
  | [] -> ()
  | name :: _ as all ->
      reject ("axiom:" ^ name) "execution violates %s under %s" (String.concat ", " all)
        (Axioms.model_name model));
  let regs = Replay.regs_of_runs runs in
  let mem = Replay.memory_of_chains shape w.Certificate.w_co in
  if List.sort compare w.Certificate.w_regs <> regs then
    reject "final-state-mismatch" "claimed registers differ from the replayed final state";
  if List.sort compare w.Certificate.w_mem <> mem then
    reject "final-state-mismatch" "claimed memory differs from the co-maximal writes";
  if not (cond_satisfied cond ~regs ~mem) then
    reject "condition-unsatisfied" "the witness does not satisfy the condition";
  ()

(* ------------------------------------------------------------------ *)
(* Forbidden validation.                                               *)
(* ------------------------------------------------------------------ *)

let check_forbidden model (program : Program.t) cond (f : Certificate.forbidden_body) =
  (* Recount the candidate space from the program alone. *)
  let combos =
    match Replay.combos ~fuel program with
    | cs -> cs
    | exception Replay.Fuel -> reject "replay-fuel" "program exhausted interpretation fuel"
  in
  let expected = Hashtbl.create 16 in
  (* events-key -> (shape, final registers of each run combination
     with this key, per-combo candidate count, multiplicity) *)
  let total_expected = ref 0 in
  List.iter
    (fun runs ->
      let shape = Replay.shape_of_runs program runs in
      let rf_product =
        List.fold_left
          (fun acc r -> acc * List.length (Replay.rf_candidates shape r))
          1 shape.Replay.reads
      in
      let co_product =
        List.fold_left
          (fun acc (_, _, others) -> acc * fact (List.length others))
          1
          (Replay.co_locations shape)
      in
      let count = rf_product * co_product in
      if count > 0 then begin
        total_expected := !total_expected + count;
        let key = Trace.events_key (Array.to_list shape.Replay.events) in
        let regs = Replay.regs_of_runs runs in
        match Hashtbl.find_opt expected key with
        | Some (sh, rs, c, mult) -> Hashtbl.replace expected key (sh, regs :: rs, c, mult + 1)
        | None -> Hashtbl.replace expected key (shape, [ regs ], count, 1)
      end)
    combos;
  (* The certificate must list exactly one combo per feasible run
     combination (multiset match on the canonical events). *)
  let listed =
    List.map
      (fun (x : Certificate.combo) -> (Trace.events_key x.Certificate.x_events, x))
      f.Certificate.f_combos
  in
  let seen_mult = Hashtbl.create 16 in
  List.iter
    (fun (key, _) ->
      Hashtbl.replace seen_mult key (1 + Option.value ~default:0 (Hashtbl.find_opt seen_mult key)))
    listed;
  Hashtbl.iter
    (fun key (_, _, _, mult) ->
      let got = Option.value ~default:0 (Hashtbl.find_opt seen_mult key) in
      if got <> mult then
        reject "combo-set-mismatch"
          "a feasible run combination appears %d time(s) in the certificate, expected %d"
          got mult)
    expected;
  Hashtbl.iter
    (fun key _ ->
      if not (Hashtbl.mem expected key) then
        reject "combo-set-mismatch" "certificate lists a run combination the program cannot produce")
    seen_mult;
  (* Per combo: every candidate well-formed and distinct, the count
     exactly the recomputed rf x co product (=> exhaustiveness), and
     no consistent candidate may satisfy the condition - checked as
     "every candidate that satisfies it is inconsistent", so the
     axioms run only where the condition holds. *)
  let total_listed = ref 0 in
  List.iter
    (fun (key, (x : Certificate.combo)) ->
      let shape, regs_list, count, _ =
        match Hashtbl.find_opt expected key with Some e -> e | None -> assert false
      in
      if List.length x.Certificate.x_candidates <> count then
        reject "candidate-count-mismatch" "combo lists %d candidates, the rf/co space has %d"
          (List.length x.Certificate.x_candidates)
          count;
      total_listed := !total_listed + count;
      let n = Array.length shape.Replay.events in
      let ctx = Axioms.ctx_of_shape shape in
      let dedup = Hashtbl.create 16 in
      List.iter
        (fun (k : Certificate.candidate) ->
          validate_rf shape k.Certificate.k_rf;
          validate_co shape k.Certificate.k_co;
          let norm =
            ( List.sort compare k.Certificate.k_rf,
              List.sort compare k.Certificate.k_co )
          in
          if Hashtbl.mem dedup norm then
            reject "duplicate-candidate" "a candidate execution is listed twice";
          Hashtbl.replace dedup norm ();
          let mem = Replay.memory_of_chains shape k.Certificate.k_co in
          if
            List.exists (fun regs -> cond_satisfied cond ~regs ~mem) regs_list
            && Axioms.consistent model ctx
                 ~rf:(Rel.of_list n k.Certificate.k_rf)
                 ~co:(rel_of_chains n k.Certificate.k_co)
          then
            reject "forbidden-refuted" "a consistent execution satisfies the condition under %s"
              (Axioms.model_name model))
        x.Certificate.x_candidates)
    listed;
  if f.Certificate.f_count <> !total_expected || !total_listed <> !total_expected then
    reject "count-mismatch" "certificate claims %d candidates, the program's space has %d"
      f.Certificate.f_count !total_expected;
  ()

(* ------------------------------------------------------------------ *)
(* Minimality validation.                                              *)
(* ------------------------------------------------------------------ *)

(* Independent re-statement of what a placement means: insert the
   site's barrier immediately before instruction [at] of thread
   [tid]. *)
let apply_sites (p : Program.t) (sites : Certificate.site list) =
  let threads =
    Array.mapi
      (fun tid thread ->
        let here = List.filter (fun (s : Certificate.site) -> s.Certificate.s_tid = tid) sites in
        if here = [] then thread
        else begin
          let out = ref [] in
          Array.iteri
            (fun i instr ->
              List.iter
                (fun (s : Certificate.site) ->
                  if s.Certificate.s_at = i then
                    out := Instr.Barrier s.Certificate.s_barrier :: !out)
                here;
              out := instr :: !out)
            thread;
          Array.of_list (List.rev !out)
        end)
      p.Program.threads
  in
  { p with Program.threads }

let check_minimal model (program : Program.t) cond (m : Certificate.minimality) =
  let nthreads = Array.length program.Program.threads in
  List.iter
    (fun (s : Certificate.site) ->
      if s.Certificate.s_tid < 0 || s.Certificate.s_tid >= nthreads then
        reject "site-malformed" "site names thread %d" s.Certificate.s_tid;
      if
        s.Certificate.s_at < 0
        || s.Certificate.s_at >= Array.length program.Program.threads.(s.Certificate.s_tid)
      then
        reject "site-malformed" "site %d/%d is out of range" s.Certificate.s_tid
          s.Certificate.s_at)
    m.Certificate.m_sites;
  (* The full placement forbids the condition... *)
  check_forbidden model (apply_sites program m.Certificate.m_sites) cond m.Certificate.m_fenced;
  (* ...and every single-site weakening provably allows it again. *)
  let nsites = List.length m.Certificate.m_sites in
  List.iter
    (fun (idx, _) ->
      if idx < 0 || idx >= nsites then
        reject "refutation-malformed" "refutation names site %d of %d" idx nsites)
    m.Certificate.m_refutations;
  List.iteri
    (fun idx _ ->
      match List.assoc_opt idx m.Certificate.m_refutations with
      | None -> reject "refutation-missing" "no refutation for dropping site %d" idx
      | Some w ->
          let weaker =
            List.filteri (fun i _ -> i <> idx) m.Certificate.m_sites
          in
          check_witness model (apply_sites program weaker) cond w)
    m.Certificate.m_sites;
  ()

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let check (t : Certificate.t) : (unit, reason) result =
  match
    (match Program.validate t.Certificate.program with
    | Ok () -> ()
    | Error msg -> reject "bad-program" "%s" msg);
    match t.Certificate.claim with
    | Certificate.Allowed w ->
        check_witness t.Certificate.model t.Certificate.program t.Certificate.cond w
    | Certificate.Forbidden f ->
        check_forbidden t.Certificate.model t.Certificate.program t.Certificate.cond f
    | Certificate.Minimal m ->
        check_minimal t.Certificate.model t.Certificate.program t.Certificate.cond m
  with
  | () -> Ok ()
  | exception Reject r -> Error r
  | exception Trace.Bad msg -> Error { code = "malformed"; detail = msg }

let check_string s =
  match Certificate.of_string s with
  | Error msg -> Error { code = "parse"; detail = msg }
  | Ok t -> ( match check t with Ok () -> Ok t | Error r -> Error r)
