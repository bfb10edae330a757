open Wmm_isa

(* The independent certificate checker: the trust anchor of the whole
   verdict pipeline.  Given a parsed {!Certificate.t} it revalidates
   the claim from first principles - thread replay, canonical event
   layout, well-formedness of rf/co, the model's axioms
   ({!Axioms}), final-state recomputation, and (for forbidden
   verdicts) an rf/co candidate-space recount from the program alone
   and a walk over every candidate.  Nothing from a certificate is
   trusted: dependencies, register values and candidate counts are
   always recomputed. *)

type reason = { code : string; detail : string }

let reason_string r = r.code ^ ": " ^ r.detail

exception Reject of reason

let reject code fmt = Printf.ksprintf (fun detail -> raise (Reject { code; detail })) fmt

let fuel = 4096

(* The most candidate executions a forbidden claim may have: the
   checker walks them all itself, so this bounds its work on any
   certificate.  Emission declines a forbidden claim past it. *)
let max_candidates = 50_000

let too_large () =
  reject "too-large" "the program has more than %d candidate executions" max_candidates

(* [a * b], refused past [max_candidates] before it is formed, so a
   crafted program cannot wrap the recount around. *)
let bounded_mul a b =
  if b > 0 && a > max_candidates / b then too_large ();
  a * b

(* [acc * k!], bounded at every multiplication. *)
let rec times_fact acc k = if k <= 1 then acc else times_fact (bounded_mul acc k) (k - 1)

(* Condition semantics, identical to the litmus checker's: registers
   must be present with the exact value; absent memory locations read
   as their 0 default.  The forbidden walk tests the two halves
   apart. *)
let regs_satisfy (cond : Certificate.condition) regs =
  List.for_all
    (fun (k, v) -> match List.assoc_opt k regs with Some v' -> v = v' | None -> false)
    cond.Certificate.c_regs

let mem_satisfies (cond : Certificate.condition) mem =
  List.for_all
    (fun (l, v) -> match List.assoc_opt l mem with Some v' -> v = v' | None -> v = 0)
    cond.Certificate.c_mem

let cond_satisfied cond ~regs ~mem = regs_satisfy cond regs && mem_satisfies cond mem

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
  let combos =
    match Replay.combos ~fuel program with
    | cs -> cs
    | exception Replay.Fuel -> reject "replay-fuel" "program exhausted interpretation fuel"
    | exception Replay.Too_large msg -> reject "too-large" "%s" msg
  in
  (* Recount the candidate space from the program alone: per live run
     combination, the rf choices of its reads times the coherence
     permutations of its locations.  A combination that is not [live]
     has a read with no rf candidate, so it counts 0 and its shape is
     never built.  Only a combination whose final registers meet the
     condition is kept for the walk. *)
  let total = ref 0 and kept = ref [] in
  List.iter
    (fun runs ->
      if Replay.live program runs then begin
        let shape = Replay.shape_of_runs program runs in
        let rf_product =
          List.fold_left
            (fun acc r -> bounded_mul acc (List.length (Replay.rf_candidates shape r)))
            1 shape.Replay.reads
        in
        let count =
          List.fold_left
            (fun acc (_, _, others) -> times_fact acc (List.length others))
            rf_product (Replay.co_locations shape)
        in
        total := !total + count;
        if !total > max_candidates then too_large ();
        if regs_satisfy cond (Replay.regs_of_runs runs) then kept := shape :: !kept
      end)
    combos;
  if f.Certificate.f_count <> !total then
    reject "count-mismatch" "certificate claims %d candidates, the program's space has %d"
      f.Certificate.f_count !total;
  (* Walk every candidate of the kept combinations, condition first: a
     coherence order whose co-maximal writes miss the memory condition
     is skipped with all its rf assignments, and the axioms run only on
     the rest.  No consistent candidate may satisfy the condition. *)
  List.iter
    (fun shape ->
      let n = Array.length shape.Replay.events in
      let ctx = lazy (Axioms.ctx_of_shape shape) in
      Replay.iter_co shape (fun chains ->
          if mem_satisfies cond (Replay.memory_of_chains shape chains) then begin
            let co = rel_of_chains n chains in
            Replay.iter_rf shape (fun rf ->
                if Axioms.consistent model (Lazy.force ctx) ~rf:(Rel.of_list n rf) ~co then
                  reject "forbidden-refuted"
                    "a consistent execution satisfies the condition under %s"
                    (Axioms.model_name model))
          end))
    (List.rev !kept)

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
