open Wmm_isa

(* The checker's own thread semantics.  Two interpreters share the
   state shape:

   - [replay_thread]: a deterministic sequential interpreter that
     consumes a claimed event list, taking each read's value from the
     claimed event.  It validates that the events are exactly what the
     thread's instructions produce, and returns the final registers
     and the dependency edges it derived itself (so a certificate
     cannot forge dependencies - they are never trusted, always
     recomputed).
   - [runs]: a branching interpreter enumerating every feasible run of
     a thread against a value pool, used by the forbidden-verdict
     check to recompute the candidate space from the program alone.

   Both deliberately re-state the architectural rules (exclusive
   monitors, spurious store-exclusive failure, control deps carried by
   branches) rather than importing them from the explorer. *)

exception Fuel

(* Runs per thread, and run combinations per program (one run per
   thread): past this bound the program is refused before its runs or
   combinations are listed, so a certificate cannot make the checker
   interpret an unbounded space.  It matches the explorer's own bound
   on run combinations. *)
let max_combos = 200_000

exception Too_large of string

type levent = {
  v_action : Trace.action;
  v_addr : int list;  (** read indices this event's address depends on *)
  v_data : int list;
  v_ctrl : int list;
  v_read_index : int option;
  v_rmw_source : int option;
}

type run = {
  r_events : levent list;  (** in program order *)
  r_regs : (Instr.reg * Instr.value) list;  (** registers written, sorted *)
}

module IM = Map.Make (Int)

let dedup l = List.sort_uniq compare l

(* ------------------------------------------------------------------ *)
(* Deterministic replay of one thread against claimed events.          *)
(* ------------------------------------------------------------------ *)

let replay_thread ?(fuel = 4096) (thread : Instr.t array) (actions : Trace.action list) :
    (run, string) result =
  let length = Array.length thread in
  let mismatch pc what = Error (Printf.sprintf "instruction %d: %s" pc what) in
  let rec step pc steps regs reg_deps ctrl written events next_read monitor expected =
    if steps > fuel then raise Fuel;
    if pc >= length then
      match expected with
      | [] ->
          let final =
            List.sort compare
              (IM.bindings (IM.filter (fun r _ -> List.mem r written) regs))
          in
          Ok { r_events = List.rev events; r_regs = final }
      | _ :: _ -> Error "trailing events not produced by the thread"
    else begin
      let get_reg r = try IM.find r regs with Not_found -> 0 in
      let deps_of_reg r = try IM.find r reg_deps with Not_found -> [] in
      let eval = function Instr.Imm v -> v | Instr.Reg r -> get_reg r in
      let deps_of_operand = function Instr.Imm _ -> [] | Instr.Reg r -> deps_of_reg r in
      let emit action ~addr ~data ~read_index ~rmw_source =
        {
          v_action = action;
          v_addr = dedup addr;
          v_data = dedup data;
          v_ctrl = dedup ctrl;
          v_read_index = read_index;
          v_rmw_source = rmw_source;
        }
      in
      match thread.(pc) with
      | Instr.Nop ->
          step (pc + 1) (steps + 1) regs reg_deps ctrl written events next_read monitor
            expected
      | Instr.Barrier b -> (
          match expected with
          | Trace.Fence b' :: rest when b = b' ->
              let e = emit (Trace.Fence b) ~addr:[] ~data:[] ~read_index:None ~rmw_source:None in
              step (pc + 1) (steps + 1) regs reg_deps ctrl written (e :: events) next_read
                monitor rest
          | _ -> mismatch pc "expected a fence event")
      | Instr.Mov { dst; src } ->
          let regs = IM.add dst (eval src) regs in
          let reg_deps = IM.add dst (deps_of_operand src) reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read
            monitor expected
      | Instr.Op { op; dst; a; b } ->
          let regs = IM.add dst (Instr.eval_binop op (eval a) (eval b)) regs in
          let reg_deps = IM.add dst (dedup (deps_of_operand a @ deps_of_operand b)) reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read
            monitor expected
      | Instr.Cbnz { src; offset } | Instr.Cbz { src; offset } ->
          let taken =
            match thread.(pc) with
            | Instr.Cbnz _ -> get_reg src <> 0
            | _ -> get_reg src = 0
          in
          let ctrl = dedup (deps_of_reg src @ ctrl) in
          let pc' = if taken then pc + 1 + offset else pc + 1 in
          step pc' (steps + 1) regs reg_deps ctrl written events next_read monitor expected
      | Instr.Store { src; addr; order } -> (
          let loc = eval addr in
          let value = eval src in
          match expected with
          | Trace.Write { loc = l; value = v; order = o; rmw = false } :: rest
            when l = loc && v = value && o = order ->
              let e =
                emit
                  (Trace.Write { loc; value; order; rmw = false })
                  ~addr:(deps_of_operand addr) ~data:(deps_of_operand src)
                  ~read_index:None ~rmw_source:None
              in
              step (pc + 1) (steps + 1) regs reg_deps ctrl written (e :: events) next_read
                monitor rest
          | _ -> mismatch pc "store does not match the claimed write event")
      | Instr.Load { dst; addr; order } -> (
          let loc = eval addr in
          match expected with
          | Trace.Read { loc = l; value; order = o } :: rest when l = loc && o = order ->
              let e =
                emit
                  (Trace.Read { loc; value; order })
                  ~addr:(deps_of_operand addr) ~data:[] ~read_index:(Some next_read)
                  ~rmw_source:None
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) (e :: events)
                (next_read + 1) monitor rest
          | _ -> mismatch pc "load does not match the claimed read event")
      | Instr.Load_exclusive { dst; addr; order } -> (
          let loc = eval addr in
          match expected with
          | Trace.Read { loc = l; value; order = o } :: rest when l = loc && o = order ->
              let e =
                emit
                  (Trace.Read { loc; value; order })
                  ~addr:(deps_of_operand addr) ~data:[] ~read_index:(Some next_read)
                  ~rmw_source:None
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) (e :: events)
                (next_read + 1)
                (Some (loc, next_read))
                rest
          | _ -> mismatch pc "load-exclusive does not match the claimed read event")
      | Instr.Store_exclusive { status; src; addr; order } -> (
          let loc = eval addr in
          let value = eval src in
          (* Success exactly when the monitor covers this location AND
             the claimed events continue with the matching rmw write;
             otherwise the (always architecturally possible) failure
             branch is taken, which emits no event.  A forged rmw flag
             or a success claim without the monitor surfaces as a
             mismatch on this or a later event. *)
          let success =
            match (monitor, expected) with
            | ( Some (mloc, _),
                Trace.Write { loc = l; value = v; order = o; rmw = true } :: _ )
              when mloc = loc && l = loc && v = value && o = order ->
                true
            | _ -> false
          in
          if success then
            match (monitor, expected) with
            | Some (_, ridx), _ :: rest ->
                let e =
                  emit
                    (Trace.Write { loc; value; order; rmw = true })
                    ~addr:(deps_of_operand addr) ~data:(deps_of_operand src)
                    ~read_index:None ~rmw_source:(Some ridx)
                in
                let regs = IM.add status 0 regs in
                let reg_deps = IM.add status [] reg_deps in
                step (pc + 1) (steps + 1) regs reg_deps ctrl (status :: written)
                  (e :: events) next_read None rest
            | _ -> assert false
          else
            let regs = IM.add status 1 regs in
            let reg_deps = IM.add status [] reg_deps in
            step (pc + 1) (steps + 1) regs reg_deps ctrl (status :: written) events
              next_read None expected)
    end
  in
  step 0 0 IM.empty IM.empty [] [] [] 0 None actions

(* ------------------------------------------------------------------ *)
(* Branching interpretation (for the forbidden-claim recount).        *)
(* ------------------------------------------------------------------ *)

let runs ~fuel ~pool (thread : Instr.t array) : run list =
  let length = Array.length thread in
  let results = ref [] in
  let count = ref 0 in
  let rec step pc steps regs reg_deps ctrl written events next_read monitor =
    if steps > fuel then raise Fuel;
    if pc >= length then begin
      incr count;
      if !count > max_combos then
        raise (Too_large (Printf.sprintf "a thread has more than %d runs" max_combos));
      let final =
        List.sort compare (IM.bindings (IM.filter (fun r _ -> List.mem r written) regs))
      in
      results := { r_events = List.rev events; r_regs = final } :: !results
    end
    else begin
      let get_reg r = try IM.find r regs with Not_found -> 0 in
      let deps_of_reg r = try IM.find r reg_deps with Not_found -> [] in
      let eval = function Instr.Imm v -> v | Instr.Reg r -> get_reg r in
      let deps_of_operand = function Instr.Imm _ -> [] | Instr.Reg r -> deps_of_reg r in
      let emit action ~addr ~data ~read_index ~rmw_source =
        {
          v_action = action;
          v_addr = dedup addr;
          v_data = dedup data;
          v_ctrl = dedup ctrl;
          v_read_index = read_index;
          v_rmw_source = rmw_source;
        }
      in
      match thread.(pc) with
      | Instr.Nop ->
          step (pc + 1) (steps + 1) regs reg_deps ctrl written events next_read monitor
      | Instr.Barrier b ->
          let e = emit (Trace.Fence b) ~addr:[] ~data:[] ~read_index:None ~rmw_source:None in
          step (pc + 1) (steps + 1) regs reg_deps ctrl written (e :: events) next_read
            monitor
      | Instr.Mov { dst; src } ->
          let regs = IM.add dst (eval src) regs in
          let reg_deps = IM.add dst (deps_of_operand src) reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read
            monitor
      | Instr.Op { op; dst; a; b } ->
          let regs = IM.add dst (Instr.eval_binop op (eval a) (eval b)) regs in
          let reg_deps = IM.add dst (dedup (deps_of_operand a @ deps_of_operand b)) reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read
            monitor
      | Instr.Cbnz { src; offset } | Instr.Cbz { src; offset } ->
          let taken =
            match thread.(pc) with
            | Instr.Cbnz _ -> get_reg src <> 0
            | _ -> get_reg src = 0
          in
          let ctrl = dedup (deps_of_reg src @ ctrl) in
          let pc' = if taken then pc + 1 + offset else pc + 1 in
          step pc' (steps + 1) regs reg_deps ctrl written events next_read monitor
      | Instr.Store { src; addr; order } ->
          let loc = eval addr in
          let e =
            emit
              (Trace.Write { loc; value = eval src; order; rmw = false })
              ~addr:(deps_of_operand addr) ~data:(deps_of_operand src) ~read_index:None
              ~rmw_source:None
          in
          step (pc + 1) (steps + 1) regs reg_deps ctrl written (e :: events) next_read
            monitor
      | Instr.Load { dst; addr; order } ->
          let loc = eval addr in
          List.iter
            (fun value ->
              let e =
                emit
                  (Trace.Read { loc; value; order })
                  ~addr:(deps_of_operand addr) ~data:[] ~read_index:(Some next_read)
                  ~rmw_source:None
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) (e :: events)
                (next_read + 1) monitor)
            (pool loc)
      | Instr.Load_exclusive { dst; addr; order } ->
          let loc = eval addr in
          List.iter
            (fun value ->
              let e =
                emit
                  (Trace.Read { loc; value; order })
                  ~addr:(deps_of_operand addr) ~data:[] ~read_index:(Some next_read)
                  ~rmw_source:None
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) (e :: events)
                (next_read + 1)
                (Some (loc, next_read)))
            (pool loc)
      | Instr.Store_exclusive { status; src; addr; order } -> (
          let loc = eval addr in
          (* Failure branch: spurious failure is always allowed. *)
          let fail_regs = IM.add status 1 regs in
          let fail_deps = IM.add status [] reg_deps in
          step (pc + 1) (steps + 1) fail_regs fail_deps ctrl (status :: written) events
            next_read None;
          match monitor with
          | Some (mloc, ridx) when mloc = loc ->
              let e =
                emit
                  (Trace.Write { loc; value = eval src; order; rmw = true })
                  ~addr:(deps_of_operand addr) ~data:(deps_of_operand src)
                  ~read_index:None ~rmw_source:(Some ridx)
              in
              let ok_regs = IM.add status 0 regs in
              let ok_deps = IM.add status [] reg_deps in
              step (pc + 1) (steps + 1) ok_regs ok_deps ctrl (status :: written)
                (e :: events) next_read None
          | Some _ | None -> ())
    end
  in
  step 0 0 IM.empty IM.empty [] [] [] 0 None;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Value-pool fixpoint and run combinations (program-alone recount).   *)
(* ------------------------------------------------------------------ *)

let value_pool ~fuel (p : Program.t) =
  let module VS = Set.Make (Int) in
  let initial =
    List.fold_left
      (fun acc l -> IM.add l (VS.singleton (Program.initial_value p l)) acc)
      IM.empty (Program.locations p)
  in
  let lookup pool loc =
    match IM.find_opt loc pool with Some vs -> VS.elements vs | None -> [ 0 ]
  in
  let grow pool =
    let additions = ref pool in
    Array.iter
      (fun thread ->
        List.iter
          (fun run ->
            List.iter
              (fun e ->
                match e.v_action with
                | Trace.Write { loc; value; _ } ->
                    let current =
                      match IM.find_opt loc !additions with
                      | Some vs -> vs
                      | None -> VS.singleton (Program.initial_value p loc)
                    in
                    additions := IM.add loc (VS.add value current) !additions
                | Trace.Read _ | Trace.Fence _ -> ())
              run.r_events)
          (runs ~fuel ~pool:(lookup pool) thread))
      p.Program.threads;
    !additions
  in
  let rec fixpoint pool iterations =
    if iterations > 8 then pool
    else
      let next = grow pool in
      if IM.equal VS.equal next pool then pool else fixpoint next (iterations + 1)
  in
  lookup (fixpoint initial 0)

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun tail -> c :: tail) tails) choices

let combos ~fuel (p : Program.t) : run array list =
  let pool = value_pool ~fuel p in
  let per_thread =
    Array.to_list (Array.map (fun thread -> runs ~fuel ~pool thread) p.Program.threads)
  in
  ignore
    (List.fold_left
       (fun total rs ->
         let k = List.length rs in
         if k > 0 && total > max_combos / k then
           raise (Too_large (Printf.sprintf "more than %d run combinations" max_combos));
         total * k)
       1 per_thread);
  List.map Array.of_list (cartesian per_thread)

(* ------------------------------------------------------------------ *)
(* Canonical global shape of one run combination.                      *)
(* ------------------------------------------------------------------ *)

type shape = {
  events : Trace.event array;
  po : Rel.t;
  addr : Rel.t;
  data : Rel.t;
  ctrl : Rel.t;
  rmw : Rel.t;
  init_ids : (Instr.loc * int) list;
  locations : Instr.loc list;
  reads : int list;
  writes : int list;
}

(* The canonical layout: init writes first (tid -1, po 0, in location
   order), then thread events tid-major in program order; program
   order is transitive within each thread and empty elsewhere. *)
let shape_of_runs (p : Program.t) (rs : run array) =
  let module LS = Set.Make (Int) in
  let locs = ref (LS.of_list (Program.locations p)) in
  Array.iter
    (fun run ->
      List.iter
        (fun e ->
          match e.v_action with
          | Trace.Read { loc; _ } | Trace.Write { loc; _ } -> locs := LS.add loc !locs
          | Trace.Fence _ -> ())
        run.r_events)
    rs;
  let locations = LS.elements !locs in
  let events = ref [] in
  let next_id = ref 0 in
  let push tid po action =
    let e = { Trace.id = !next_id; tid; po; action } in
    incr next_id;
    events := e :: !events;
    e.Trace.id
  in
  let init_ids =
    List.map
      (fun l ->
        ( l,
          push Trace.init_tid 0
            (Trace.Write
               { loc = l; value = Program.initial_value p l; order = Instr.Plain; rmw = false })
        ))
      locations
  in
  let n_guess = List.fold_left (fun acc r -> acc + List.length r.r_events) (List.length init_ids) (Array.to_list rs) in
  let po = Rel.create n_guess in
  let addr = Rel.create n_guess in
  let data = Rel.create n_guess in
  let ctrl = Rel.create n_guess in
  let rmw = Rel.create n_guess in
  let read_global = Hashtbl.create 16 in
  Array.iteri
    (fun tid run ->
      let ids =
        List.mapi
          (fun po_index e ->
            let gid = push tid po_index e.v_action in
            (match e.v_read_index with
            | Some i -> Hashtbl.replace read_global (tid, i) gid
            | None -> ());
            (gid, e))
          run.r_events
      in
      List.iteri
        (fun i (gi, _) ->
          List.iteri (fun j (gj, _) -> if i < j then Rel.add po gi gj) ids)
        ids;
      List.iter
        (fun (gid, e) ->
          let resolve idx = Hashtbl.find read_global (tid, idx) in
          List.iter (fun i -> Rel.add addr (resolve i) gid) e.v_addr;
          List.iter (fun i -> Rel.add data (resolve i) gid) e.v_data;
          List.iter (fun i -> Rel.add ctrl (resolve i) gid) e.v_ctrl;
          Option.iter (fun i -> Rel.add rmw (resolve i) gid) e.v_rmw_source)
        ids)
    rs;
  let all =
    match !events with
    | [] -> [||]
    | hd :: _ ->
        let arr = Array.make !next_id hd in
        List.iter (fun (e : Trace.event) -> arr.(e.Trace.id) <- e) !events;
        arr
  in
  let ids = List.init !next_id Fun.id in
  {
    events = all;
    po;
    addr;
    data;
    ctrl;
    rmw;
    init_ids;
    locations;
    reads = List.filter (fun i -> Trace.is_read all.(i)) ids;
    writes = List.filter (fun i -> Trace.is_write all.(i)) ids;
  }

(* Same-location same-value writes a read may take its value from. *)
let rf_candidates shape r =
  let er = shape.events.(r) in
  List.filter
    (fun w ->
      let ew = shape.events.(w) in
      Trace.same_loc ew er && Trace.value ew = Trace.value er)
    shape.writes

(* [rf_candidates] read off the runs, before any shape exists: a run
   combination is live exactly when every read's value is its
   location's initial value (the init write of [shape_of_runs]) or
   the value of a write event of the combination at that location
   (any thread's, rmw writes included).  A combination with a read
   that has no rf candidate has no candidate execution, so the recount
   counts it as 0 without building its shape.  This is a statement of
   the program alone, like the rest of the recount. *)
let live (p : Program.t) (rs : run array) =
  let written loc value =
    Array.exists
      (fun run ->
        List.exists
          (fun e ->
            match e.v_action with
            | Trace.Write w -> w.loc = loc && w.value = value
            | Trace.Read _ | Trace.Fence _ -> false)
          run.r_events)
      rs
  in
  Array.for_all
    (fun run ->
      List.for_all
        (fun e ->
          match e.v_action with
          | Trace.Read { loc; value; _ } ->
              value = Program.initial_value p loc || written loc value
          | Trace.Write _ | Trace.Fence _ -> true)
        run.r_events)
    rs

(* Per-location write sets for coherence orders; init is co-first. *)
let co_locations shape =
  List.map
    (fun l ->
      let init_id = List.assoc l shape.init_ids in
      let others =
        List.filter
          (fun w -> w <> init_id && Trace.loc shape.events.(w) = Some l)
          shape.writes
      in
      (l, init_id, others))
    shape.locations

(* ------------------------------------------------------------------ *)
(* The candidate walk of one shape.                                    *)
(* ------------------------------------------------------------------ *)

(* Every coherence order: one chain per location, init write first,
   locations in [co_locations] order.  Grown one write at a time, so
   no list of permutations is ever built. *)
let iter_co shape (f : (Instr.loc * int list) list -> unit) =
  let rec locs done_chains = function
    | [] -> f (List.rev done_chains)
    | (l, init_id, others) :: rest ->
        let rec extend placed = function
          | [] -> locs ((l, List.rev placed) :: done_chains) rest
          | remaining ->
              List.iter
                (fun w -> extend (w :: placed) (List.filter (fun o -> o <> w) remaining))
                remaining
        in
        extend [ init_id ] others
  in
  locs [] (co_locations shape)

(* Every rf assignment: each read takes one of its [rf_candidates],
   as (write, read) pairs. *)
let iter_rf shape (f : (int * int) list -> unit) =
  let rec reads edges = function
    | [] -> f edges
    | (r, ws) :: rest -> List.iter (fun w -> reads ((w, r) :: edges) rest) ws
  in
  reads [] (List.map (fun r -> (r, rf_candidates shape r)) shape.reads)

let regs_of_runs (rs : run array) =
  Array.to_list rs
  |> List.mapi (fun tid run -> List.map (fun (r, v) -> ((tid, r), v)) run.r_regs)
  |> List.concat |> List.sort compare

(* Final memory read off the co chains: the last write of each chain. *)
let memory_of_chains shape chains =
  List.sort compare
    (List.map
       (fun (l, chain) ->
         let last = List.nth chain (List.length chain - 1) in
         (l, Option.get (Trace.value shape.events.(last))))
       chains)
