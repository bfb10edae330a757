open Wmm_isa
type outcome = {
  registers : ((int * Instr.reg) * Instr.value) list;
  memory : (Instr.loc * Instr.value) list;
}

let compare_outcome a b =
  match compare a.registers b.registers with 0 -> compare a.memory b.memory | c -> c

let pp_outcome (p : Program.t) fmt o =
  let regs =
    List.map (fun ((tid, r), v) -> Printf.sprintf "%d:x%d=%d" tid r v) o.registers
  in
  let mem =
    List.map (fun (l, v) -> Printf.sprintf "%s=%d" (Program.location_name p l) v) o.memory
  in
  Format.fprintf fmt "{%s}" (String.concat "; " (regs @ mem))

let outcome_to_string p o = Format.asprintf "%a" (pp_outcome p) o

(* ------------------------------------------------------------------ *)
(* Thread interpretation.                                              *)
(* ------------------------------------------------------------------ *)

(* A local event recorded while interpreting one thread.  Reads are
   numbered (by [read_index]) so dependencies can refer to them before
   global event ids exist. *)
type local_event = {
  l_action : Event.action;
  l_addr_deps : int list;  (** read indices this event's address depends on *)
  l_data_deps : int list;  (** read indices a store's value depends on *)
  l_ctrl_deps : int list;  (** read indices controlling reachability *)
  l_read_index : int option;  (** Some i when this event is read number i *)
  l_rmw_source : int option;
      (** For a successful exclusive write: the read index of the
          paired exclusive read. *)
}

type run = {
  events : local_event list;  (** in program order *)
  final_regs : (Instr.reg * Instr.value) list;  (** registers written *)
}

(* Interpreted steps per thread: an accidentally looping program fails
   fast, with [Failure], instead of hanging. *)
let fuel = 1024

(* Run combinations per program (one run per thread): a program with
   more fails with [Failure] before they are listed.  The largest
   program in the litmus library, the language catalogs and the
   synthesized families up to bound 8 (the bakery lock) has 40,000. *)
let max_combos = 200_000

let too_many_combos () =
  failwith (Printf.sprintf "Enumerate: more than %d run combinations" max_combos)

(* Interpret one thread, branching over the possible values of every
   load (drawn from [pool]).  Returns every feasible run; a thread with
   more than [max_combos] alone fails. *)
let run_thread ~pool (thread : Program.thread) : run list =
  let length = Array.length thread in
  let results = ref [] in
  let count = ref 0 in
  let module IM = Map.Make (Int) in
  let dedup l = List.sort_uniq compare l in
  let rec step pc steps regs reg_deps ctrl written events next_read monitor =
    if steps > fuel then failwith "Enumerate: thread interpretation fuel exhausted";
    if pc >= length then begin
      incr count;
      if !count > max_combos then too_many_combos ();
      let final_regs =
        List.sort compare (IM.bindings (IM.filter (fun r _ -> List.mem r written) regs))
      in
      results := { events = List.rev events; final_regs } :: !results
    end
    else begin
      let get_reg r = try IM.find r regs with Not_found -> 0 in
      let deps_of_reg r = try IM.find r reg_deps with Not_found -> [] in
      let eval = function Instr.Imm v -> v | Instr.Reg r -> get_reg r in
      let deps_of_operand = function Instr.Imm _ -> [] | Instr.Reg r -> deps_of_reg r in
      match thread.(pc) with
      | Instr.Nop -> step (pc + 1) (steps + 1) regs reg_deps ctrl written events next_read monitor
      | Instr.Barrier b ->
          let event =
            {
              l_action = Event.Fence b;
              l_addr_deps = [];
              l_data_deps = [];
              l_ctrl_deps = dedup ctrl;
              l_read_index = None;
              l_rmw_source = None;
            }
          in
          step (pc + 1) (steps + 1) regs reg_deps ctrl written (event :: events) next_read monitor
      | Instr.Mov { dst; src } ->
          let regs = IM.add dst (eval src) regs in
          let reg_deps = IM.add dst (deps_of_operand src) reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read monitor
      | Instr.Op { op; dst; a; b } ->
          let regs = IM.add dst (Instr.eval_binop op (eval a) (eval b)) regs in
          let deps = dedup (deps_of_operand a @ deps_of_operand b) in
          let reg_deps = IM.add dst deps reg_deps in
          step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written) events next_read monitor
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
          let event =
            {
              l_action = Event.Write { loc; value = eval src; order };
              l_addr_deps = dedup (deps_of_operand addr);
              l_data_deps = dedup (deps_of_operand src);
              l_ctrl_deps = dedup ctrl;
              l_read_index = None;
              l_rmw_source = None;
            }
          in
          step (pc + 1) (steps + 1) regs reg_deps ctrl written (event :: events) next_read monitor
      | Instr.Load_exclusive { dst; addr; order } ->
          let loc = eval addr in
          List.iter
            (fun value ->
              let event =
                {
                  l_action = Event.Read { loc; value; order };
                  l_addr_deps = dedup (deps_of_operand addr);
                  l_data_deps = [];
                  l_ctrl_deps = dedup ctrl;
                  l_read_index = Some next_read;
                  l_rmw_source = None;
                }
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written)
                (event :: events) (next_read + 1)
                (Some (loc, next_read)))
            (pool loc)
      | Instr.Store_exclusive { status; src; addr; order } ->
          let loc = eval addr in
          (* Failure branch: the monitor was lost (always possible -
             spurious failure is architecturally allowed). *)
          let fail_regs = IM.add status 1 regs in
          let fail_deps = IM.add status [] reg_deps in
          step (pc + 1) (steps + 1) fail_regs fail_deps ctrl (status :: written) events
            next_read None;
          (* Success branch: only when the monitor matches. *)
          (match monitor with
          | Some (mloc, ridx) when mloc = loc ->
              let event =
                {
                  l_action = Event.Write { loc; value = eval src; order };
                  l_addr_deps = dedup (deps_of_operand addr);
                  l_data_deps = dedup (deps_of_operand src);
                  l_ctrl_deps = dedup ctrl;
                  l_read_index = None;
                  l_rmw_source = Some ridx;
                }
              in
              let ok_regs = IM.add status 0 regs in
              let ok_deps = IM.add status [] reg_deps in
              step (pc + 1) (steps + 1) ok_regs ok_deps ctrl (status :: written)
                (event :: events) next_read None
          | Some _ | None -> ())
      | Instr.Load { dst; addr; order } ->
          let loc = eval addr in
          let candidates = pool loc in
          List.iter
            (fun value ->
              let event =
                {
                  l_action = Event.Read { loc; value; order };
                  l_addr_deps = dedup (deps_of_operand addr);
                  l_data_deps = [];
                  l_ctrl_deps = dedup ctrl;
                  l_read_index = Some next_read;
                  l_rmw_source = None;
                }
              in
              let regs = IM.add dst value regs in
              let reg_deps = IM.add dst [ next_read ] reg_deps in
              step (pc + 1) (steps + 1) regs reg_deps ctrl (dst :: written)
                (event :: events) (next_read + 1) monitor)
            candidates
    end
  in
  step 0 0 IM.empty IM.empty [] [] [] 0 None;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Phase one: value pool fixpoint.                                     *)
(* ------------------------------------------------------------------ *)

let value_pool (p : Program.t) =
  let module LM = Map.Make (Int) in
  let module VS = Set.Make (Int) in
  let initial =
    List.fold_left
      (fun acc l -> LM.add l (VS.singleton (Program.initial_value p l)) acc)
      LM.empty (Program.locations p)
  in
  let lookup pool loc =
    match LM.find_opt loc pool with
    | Some vs -> VS.elements vs
    | None -> [ 0 ]
  in
  let grow pool =
    let additions = ref pool in
    Array.iter
      (fun thread ->
        let runs = run_thread ~pool:(lookup pool) thread in
        List.iter
          (fun run ->
            List.iter
              (fun e ->
                match e.l_action with
                | Event.Write { loc; value; _ } ->
                    let current =
                      match LM.find_opt loc !additions with
                      | Some vs -> vs
                      | None -> VS.singleton (Program.initial_value p loc)
                    in
                    additions := LM.add loc (VS.add value current) !additions
                | Event.Read _ | Event.Fence _ -> ())
              run.events)
          runs)
      p.Program.threads;
    !additions
  in
  let rec fixpoint pool iterations =
    if iterations > 8 then pool
    else begin
      let next = grow pool in
      if LM.equal VS.equal next pool then pool else fixpoint next (iterations + 1)
    end
  in
  let pool = fixpoint initial 0 in
  lookup pool

(* ------------------------------------------------------------------ *)
(* Candidate skeleton: everything about one choice of per-thread runs
   that is independent of the rf/co assignment.  Built once per run
   combination and shared by every candidate explored from it.

   The dependency and rmw edges stay sorted pair lists: they key the
   static memo's shape normal form, which most run combinations only
   need to compare.  The rf/co-free execution, program order included,
   is built on first use - a static-memo miss, a witness, or a
   combination the candidate walk lists for a certificate.            *)
(* ------------------------------------------------------------------ *)

type skeleton = {
  all_events : Event.t array;
  sk_addr : (int * int) list;
  sk_data : (int * int) list;
  sk_ctrl : (int * int) list;
  sk_rmw : (int * int) list;
  sk_exec : Execution.t Lazy.t;
      (** rf and co empty; shared by every candidate, never mutated *)
  init_ids : (Instr.loc * int) list;
  sk_locations : Instr.loc list;
  sk_reads : int list;
  sk_writes : int list;
}

let skeleton_of_runs (p : Program.t) (runs : run array) =
  (* Locations touched by any event or named in the program. *)
  let module LS = Set.Make (Int) in
  let locs = ref (LS.of_list (Program.locations p)) in
  Array.iter
    (fun run ->
      List.iter
        (fun e ->
          match e.l_action with
          | Event.Read { loc; _ } | Event.Write { loc; _ } -> locs := LS.add loc !locs
          | Event.Fence _ -> ())
        run.events)
    runs;
  let locations = LS.elements !locs in
  (* Global events: init writes first, then thread events in order, so
     event ids extend program order (the graph engine adds events in
     id order and relies on this). *)
  let events = ref [] in
  let next_id = ref 0 in
  let push tid po_index action =
    let e = { Event.id = !next_id; tid; po_index; action } in
    incr next_id;
    events := e :: !events;
    e.Event.id
  in
  let init_ids =
    List.map
      (fun l ->
        ( l,
          push Event.init_tid 0
            (Event.Write { loc = l; value = Program.initial_value p l; order = Instr.Plain })
        ))
      locations
  in
  let addr = ref [] in
  let data = ref [] in
  let ctrl = ref [] in
  let rmw = ref [] in
  let read_global = Hashtbl.create 16 in
  (* (tid, read index) -> global id *)
  Array.iteri
    (fun tid run ->
      let ids =
        List.mapi
          (fun po_index e ->
            let gid = push tid po_index e.l_action in
            (match e.l_read_index with
            | Some i -> Hashtbl.replace read_global (tid, i) gid
            | None -> ());
            (gid, e))
          run.events
      in
      List.iter
        (fun (gid, e) ->
          let resolve idx = Hashtbl.find read_global (tid, idx) in
          List.iter (fun i -> addr := (resolve i, gid) :: !addr) e.l_addr_deps;
          List.iter (fun i -> data := (resolve i, gid) :: !data) e.l_data_deps;
          List.iter (fun i -> ctrl := (resolve i, gid) :: !ctrl) e.l_ctrl_deps;
          Option.iter (fun i -> rmw := (resolve i, gid) :: !rmw) e.l_rmw_source)
        ids)
    runs;
  let n = !next_id in
  let all_events =
    let arr = Array.make n (List.hd !events) in
    List.iter (fun (e : Event.t) -> arr.(e.Event.id) <- e) !events;
    arr
  in
  let addr = List.sort_uniq compare !addr
  and data = List.sort_uniq compare !data
  and ctrl = List.sort_uniq compare !ctrl
  and rmw = List.sort_uniq compare !rmw in
  let exec =
    lazy
      (let po = Bitrel.create n in
       (* Transitive program order within each thread. *)
       Array.iter
         (fun (a : Event.t) ->
           Array.iter
             (fun (b : Event.t) ->
               if a.Event.tid = b.Event.tid && a.Event.id < b.Event.id && not (Event.is_init a)
               then Bitrel.add po a.Event.id b.Event.id)
             all_events)
         all_events;
       let empty = Bitrel.create n in
       {
         Execution.events = all_events;
         po;
         rf = empty;
         co = empty;
         addr = Bitrel.of_list n addr;
         data = Bitrel.of_list n data;
         ctrl = Bitrel.of_list n ctrl;
         rmw = Bitrel.of_list n rmw;
       })
  in
  let reads =
    Array.to_list all_events |> List.filter Event.is_read |> List.map (fun e -> e.Event.id)
  in
  let writes =
    Array.to_list all_events |> List.filter Event.is_write |> List.map (fun e -> e.Event.id)
  in
  {
    all_events;
    sk_addr = addr;
    sk_data = data;
    sk_ctrl = ctrl;
    sk_rmw = rmw;
    sk_exec = exec;
    init_ids;
    sk_locations = locations;
    sk_reads = reads;
    sk_writes = writes;
  }

(* Same-location same-value writes each read may take its value from. *)
let rf_candidates skel r =
  let er = skel.all_events.(r) in
  List.filter
    (fun w ->
      let ew = skel.all_events.(w) in
      Event.same_loc ew er && Event.value ew = Event.value er)
    skel.sk_writes

(* Per-location write sets for coherence-order construction: the init
   write is always co-first. *)
let co_locations skel =
  List.map
    (fun l ->
      let init_id = List.assoc l skel.init_ids in
      let others =
        List.filter
          (fun w -> w <> init_id && Event.loc skel.all_events.(w) = Some l)
          skel.sk_writes
      in
      (l, init_id, others))
    skel.sk_locations

let registers_of_runs (runs : run array) =
  Array.to_list runs
  |> List.mapi (fun tid run -> List.map (fun (r, v) -> ((tid, r), v)) run.final_regs)
  |> List.concat |> List.sort compare

(* The final memory of a complete candidate, read straight off the co
   chains: the co-maximal write for each location is the last element
   of its chain (the init write when nothing else wrote there). *)
let memory_of_chains skel chains =
  List.sort compare
    (List.map
       (fun (l, chain) ->
         let last = List.nth chain (List.length chain - 1) in
         (l, Option.get (Event.value skel.all_events.(last))))
       chains)

(* A complete candidate: the skeleton's shared execution with rf and
   co filled in. *)
let candidate skel ~rf ~co = { (Lazy.force skel.sk_exec) with Execution.rf; co }

let rf_relation skel rf_pairs = Bitrel.of_list (Array.length skel.all_events) rf_pairs

(* Each chain orders every write before all the writes after it. *)
let co_relation skel chains =
  let co = Bitrel.create (Array.length skel.all_events) in
  List.iter
    (fun (_, chain) ->
      let rec order = function
        | [] -> ()
        | x :: rest ->
            List.iter (fun y -> Bitrel.add co x y) rest;
            order rest
      in
      order chain)
    chains;
  co

(* ------------------------------------------------------------------ *)
(* Exploration statistics.                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  generated : int;
  pruned : int;
  consistent : int;
  revisits : int;
  symmetry_skips : int;
  wall_s : float;
}

let zero_stats =
  {
    generated = 0;
    pruned = 0;
    consistent = 0;
    revisits = 0;
    symmetry_skips = 0;
    wall_s = 0.;
  }

type counters = {
  mutable c_generated : int;
  mutable c_pruned : int;
  mutable c_consistent : int;
  mutable c_revisits : int;
  mutable c_symmetry_skips : int;
}

let fresh_counters () =
  {
    c_generated = 0;
    c_pruned = 0;
    c_consistent = 0;
    c_revisits = 0;
    c_symmetry_skips = 0;
  }

let stats_of_counters c ~wall_s =
  {
    generated = c.c_generated;
    pruned = c.c_pruned;
    consistent = c.c_consistent;
    revisits = c.c_revisits;
    symmetry_skips = c.c_symmetry_skips;
    wall_s;
  }

(* Process-global accumulator, so long-running harnesses (engine
   worker domains included - this is a plain lock, safe across
   domains) can surface cumulative exploration work in telemetry. *)
let global_lock = Mutex.create ()

let global_acc = ref zero_stats

let record_global s =
  Mutex.lock global_lock;
  let g = !global_acc in
  global_acc :=
    {
      generated = g.generated + s.generated;
      pruned = g.pruned + s.pruned;
      consistent = g.consistent + s.consistent;
      revisits = g.revisits + s.revisits;
      symmetry_skips = g.symmetry_skips + s.symmetry_skips;
      wall_s = g.wall_s +. s.wall_s;
    };
  Mutex.unlock global_lock

let global_stats () =
  Mutex.lock global_lock;
  let s = !global_acc in
  Mutex.unlock global_lock;
  s

let reset_global_stats () =
  Mutex.lock global_lock;
  global_acc := zero_stats;
  Mutex.unlock global_lock

(* ------------------------------------------------------------------ *)
(* Memoized static contexts.

   The static part of a consistency check depends only on the
   candidate shape (events with their values erased, dependencies,
   rmw pairs, locations) - not on which run combination or which test
   instance produced it, and its model-independent slice not even on
   the model.  Small tests dominated by setup cost (the library-44
   regression) hit the same handful of shapes over and over, across
   combos, across the five models, and across engine worker domains,
   so both layers are memoized process-globally behind a lock.
   Prepared contexts are immutable after construction, which makes
   sharing them across domains safe.

   Each table is reset when it reaches [memo_cap] entries.  The cap
   bounds the heap of a long run over distinct tests (a synthesized
   battery), whose resident size would otherwise grow with the number
   of tests it has seen; one round of the library needs 44 base and
   220 static entries, well under it, so repeated rounds keep every
   hit.                                                                *)
(* ------------------------------------------------------------------ *)

let memo_lock = Mutex.create ()

let base_memo : (string, Axiomatic.base) Hashtbl.t = Hashtbl.create 64

let static_memo : (string, Axiomatic.static) Hashtbl.t = Hashtbl.create 64

let memo_cap = 512

let memo_find tbl key =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock memo_lock;
  r

let memo_store tbl key v =
  Mutex.lock memo_lock;
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v;
  Mutex.unlock memo_lock

let skeleton_norm skel =
  let normalize (e : Event.t) =
    let action =
      match e.Event.action with
      | Event.Read { loc; order; value = _ } -> Event.Read { loc; order; value = 0 }
      | Event.Write { loc; order; value = _ } -> Event.Write { loc; order; value = 0 }
      | Event.Fence _ as a -> a
    in
    (e.Event.tid, e.Event.po_index, action)
  in
  ( Array.map normalize skel.all_events,
    skel.sk_addr,
    skel.sk_data,
    skel.sk_ctrl,
    skel.sk_rmw,
    skel.init_ids,
    skel.sk_locations )

(* One-entry fast path in front of the digest: consecutive run combos
   of the same program almost always share a normalized shape (they
   differ only in read/write values, which the normal form erases),
   and a structural comparison of the small normal form is an order
   of magnitude cheaper than marshalling and hashing it. *)
let last_static :
    (Axiomatic.model
    * ((int * int * Event.action) array
      * (int * int) list
      * (int * int) list
      * (int * int) list
      * (int * int) list
      * (Instr.loc * int) list
      * Instr.loc list)
    * Axiomatic.static)
    option
    ref =
  ref None

let static_for model skel =
  let norm = skeleton_norm skel in
  let fast =
    Mutex.lock memo_lock;
    let r =
      match !last_static with
      | Some (m, n, st) when m = model && n = norm -> Some st
      | _ -> None
    in
    Mutex.unlock memo_lock;
    r
  in
  match fast with
  | Some st -> st
  | None ->
      let key = Digest.to_hex (Digest.string (Marshal.to_string norm [])) in
      let skey = Axiomatic.model_name model ^ "|" ^ key in
      let st =
        match memo_find static_memo skey with
        | Some st -> st
        | None ->
            let base =
              match memo_find base_memo key with
              | Some b -> b
              | None ->
                  let b = Axiomatic.prepare_base (Lazy.force skel.sk_exec) in
                  memo_store base_memo key b;
                  b
            in
            let st = Axiomatic.of_base model base in
            memo_store static_memo skey st;
            st
      in
      Mutex.lock memo_lock;
      last_static := Some (model, norm, st);
      Mutex.unlock memo_lock;
      st

(* ------------------------------------------------------------------ *)
(* The exhaustive candidate generator, in the certificates' canonical
   order.

   Every well-formed candidate of one skeleton, model-blind: first
   every read, in event-id order, is assigned its rf source (writes in
   event-id order), then each location's coherence order is grown one
   write at a time, locations in ascending order.  So rf choices vary
   lexicographically in read order, and under each of them every
   location's coherence permutations vary lexicographically, the first
   location slowest.  Candidates are well-formed by construction (rf is
   value/location-matched and unique per read, co is a per-location
   total order with init first).  The order is part of the contract:
   an allowed certificate's witness is the first match in it, and a
   forbidden certificate lists the candidates in it.                    *)
(* ------------------------------------------------------------------ *)

let search skel
    ~(emit : rf_pairs:(int * int) list -> chains:(Instr.loc * int list) list -> unit) =
  let reads = Array.of_list skel.sk_reads in
  let nreads = Array.length reads in
  let rf_cands = Array.map (fun r -> rf_candidates skel r) reads in
  let locs = co_locations skel in
  let rf_edges = ref [] in
  (* Cooperative cancellation: the candidate space can take minutes to
     walk, so poll the ambient token on a masked tick — cheap enough
     to disappear in the noise, frequent enough that a deadline lands
     within milliseconds. *)
  let tick = ref 0 in
  let poll () =
    incr tick;
    if !tick land 1023 = 0 then Wmm_util.Cancel.check_ambient ()
  in
  if Array.exists (fun c -> c = []) rf_cands then ()
  else begin
    let rec assign_read i =
      if i = nreads then assign_locs locs []
      else begin
        poll ();
        List.iter
          (fun w ->
            rf_edges := (w, reads.(i)) :: !rf_edges;
            assign_read (i + 1);
            rf_edges := List.tl !rf_edges)
          rf_cands.(i)
      end
    and assign_locs remaining_locs done_chains =
      match remaining_locs with
      | [] -> emit ~rf_pairs:!rf_edges ~chains:done_chains
      | (l, init_id, others) :: rest -> extend l [ init_id ] others rest done_chains
    and extend l placed remaining rest done_chains =
      match remaining with
      | [] -> assign_locs rest ((l, List.rev placed) :: done_chains)
      | _ ->
          poll ();
          List.iter
            (fun w ->
              let others = List.filter (fun o -> o <> w) remaining in
              extend l (w :: placed) others rest done_chains)
            remaining
    in
    assign_read 0
  end

(* ------------------------------------------------------------------ *)
(* Graph engine: incremental execution-graph enumeration.

   Events are added to the graph one at a time in event-id order -
   init writes are pre-placed and thread events follow tid-major, so
   id order extends program order and every thread grows in program
   order.  A read extends the graph with one rf choice: an
   already-placed write adds its edge immediately, while a write not
   yet in the graph is *promised* (the revisit move, counted in
   [revisits]): the search commits to the future rf edge now and
   materializes it when the write is placed, which is how executions
   whose reads observe po-later or other-thread-later writes are
   reached exactly once instead of via re-exploration.  A write picks
   an insertion point in its location's current coherence chain
   (insertion order <-> final chain order is a bijection, so no
   candidate repeats).

   Every edge-adding step is screened by the model's full consistency
   check - the monotone pruning core plus the residual axioms, all of
   which only gain edges as rf/co grow, so a violation now persists in
   every extension.  At a leaf the same conjunction is exactly
   [consistent_static] (an invariant the test suite checks), so every
   leaf reached is a consistent execution and none is wasted:
   explored == consistent, the optimality the benchmark asserts.

   Symmetry reduction: for each group of interchangeable threads
   (Symmetry.detect), only canonical executions are enumerated - the
   group members' first writes must sit in member order along their
   shared coherence chain.  Each orbit under the group's permutations
   contains exactly one canonical element (first-write positions are
   distinct, so non-identity permutations fix nothing), cutting the
   leaf count by |perms| and the subtrees below non-canonical
   insertions with it ([symmetry_skips] counts skipped insertion
   points).  The full outcome set is recovered by replaying every
   permutation's value substitution over the canonical outcomes.       *)
(* ------------------------------------------------------------------ *)

let graph_search ~static ~(sym : Symmetry.t) skel ~counters
    ~(emit : chains:(Instr.loc * int list) list -> unit) =
  let ev = skel.all_events in
  let n = Array.length ev in
  let rf = Bitrel.create n and co = Bitrel.create n in
  let rf_cands = Array.make n [] in
  List.iter (fun r -> rf_cands.(r) <- rf_candidates skel r) skel.sk_reads;
  if List.exists (fun r -> rf_cands.(r) = []) skel.sk_reads then ()
  else begin
    let chains = Hashtbl.create 8 in
    List.iter (fun (l, init_id) -> Hashtbl.replace chains l [ init_id ]) skel.init_ids;
    (* write id -> reads holding a promise on it *)
    let promises = Array.make n [] in
    (* first write of a group member -> first write of the previous
       member (same location by construction: members share shape) *)
    let sym_pred = Array.make n (-1) in
    List.iter
      (fun (g : Symmetry.group) ->
        let first_write tid =
          let rec find i =
            if i >= n then -1
            else if ev.(i).Event.tid = tid && Event.is_write ev.(i) then i
            else find (i + 1)
          in
          find 0
        in
        let fws = List.map first_write g.Symmetry.g_members in
        ignore
          (List.fold_left
             (fun prev fw ->
               if fw >= 0 && prev >= 0 then sym_pred.(fw) <- prev;
               fw)
             (-1) fws))
      sym.Symmetry.s_groups;
    let pp = Axiomatic.prune_possible static in
    (* rf/co are complete once the last read or write is placed
       (fences add no incremental edges), so the residual axioms -
       which on a partial graph can only ever rule out prefixes whose
       completions all fail anyway - are checked once, on the
       completing placement, instead of at every node.  The monotone
       core still screens every step. *)
    let last_rw =
      let r = ref (-1) in
      Array.iteri
        (fun i e ->
          match e.Event.action with Event.Fence _ -> () | _ -> r := i)
        ev;
      !r
    in
    let viable i =
      ((not pp) || Axiomatic.prune_viable static ~rf ~co)
      && (i < last_rw || Axiomatic.residual_consistent static ~rf ~co)
    in
    let tick = ref 0 in
    let poll () =
      incr tick;
      if !tick land 1023 = 0 then Wmm_util.Cancel.check_ambient ()
    in
    let start = List.length skel.init_ids in
    let rec place i =
      if i = n then leaf ()
      else begin
        poll ();
        match ev.(i).Event.action with
        | Event.Fence _ -> place (i + 1)
        | Event.Read _ -> place_read i
        | Event.Write _ -> place_write i
      end
    and place_read i =
      List.iter
        (fun w ->
          if w < i then begin
            Bitrel.add rf w i;
            if viable i then place (i + 1)
            else counters.c_pruned <- counters.c_pruned + 1;
            Bitrel.remove rf w i
          end
          else begin
            counters.c_revisits <- counters.c_revisits + 1;
            promises.(w) <- i :: promises.(w);
            place (i + 1);
            promises.(w) <- List.tl promises.(w)
          end)
        rf_cands.(i)
    and place_write i =
      let l = Option.get (Event.loc ev.(i)) in
      let chain = Hashtbl.find chains l in
      let len = List.length chain in
      (* Coherence extends per-location program order: insertion
         points before the latest already-placed same-thread write
         would fail sc-per-location, so skip them outright (counted
         as pruned - the check would have cut them anyway). *)
      let po_min =
        let rec scan k best = function
          | [] -> best
          | w :: rest ->
              scan (k + 1)
                (if ev.(w).Event.tid = ev.(i).Event.tid then k + 1 else best)
                rest
        in
        scan 0 1 chain
      in
      (* Canonicity: a group member's first write goes after the
         previous member's first write in their shared chain. *)
      let sym_min =
        if sym_pred.(i) < 0 then 1
        else
          let rec idx k = function
            | [] -> 1
            | w :: rest -> if w = sym_pred.(i) then k + 1 else idx (k + 1) rest
          in
          idx 0 chain
      in
      counters.c_pruned <- counters.c_pruned + (po_min - 1);
      let eff_min = max po_min sym_min in
      if sym_min > po_min then
        counters.c_symmetry_skips <- counters.c_symmetry_skips + (sym_min - po_min);
      let promised = promises.(i) in
      List.iter (fun r -> Bitrel.add rf i r) promised;
      for pos = eff_min to len do
        let before = List.filteri (fun k _ -> k < pos) chain in
        let after = List.filteri (fun k _ -> k >= pos) chain in
        List.iter (fun w -> Bitrel.add co w i) before;
        List.iter (fun w -> Bitrel.add co i w) after;
        Hashtbl.replace chains l (before @ (i :: after));
        if viable i then place (i + 1) else counters.c_pruned <- counters.c_pruned + 1;
        Hashtbl.replace chains l chain;
        List.iter (fun w -> Bitrel.remove co w i) before;
        List.iter (fun w -> Bitrel.remove co i w) after
      done;
      List.iter (fun r -> Bitrel.remove rf i r) promised
    and leaf () =
      counters.c_generated <- counters.c_generated + 1;
      counters.c_consistent <- counters.c_consistent + 1;
      let done_chains =
        List.map (fun (l, _) -> (l, Hashtbl.find chains l)) skel.init_ids
      in
      emit ~chains:done_chains
    in
    place start
  end

let run_combos (p : Program.t) =
  (match Program.validate p with Ok () -> () | Error msg -> invalid_arg msg);
  let pool = value_pool p in
  let runs = Array.map (fun thread -> run_thread ~pool thread) p.Program.threads in
  ignore
    (Array.fold_left
       (fun combos r ->
         let k = List.length r in
         if k > 0 && combos > max_combos / k then too_many_combos ();
         combos * k)
       1 runs);
  (* Every choice of one run per thread, the first thread's varying
     slowest. *)
  Array.fold_right
    (fun runs tails -> List.concat_map (fun r -> List.map (fun t -> r :: t) tails) runs)
    runs [ [] ]
  |> List.map Array.of_list

(* The vector of values a combo's loads observe, in a fixed event
   order: the signature the symmetry group acts on.  Permutations fix
   every reading thread (only emitters are permuted), so a combo's
   orbit is given by mapping this vector pointwise. *)
let combo_reads (runs : run array) =
  let vs = ref [] in
  Array.iter
    (fun run ->
      List.iter
        (fun e ->
          match e.l_action with
          | Event.Read { value; _ } -> vs := value :: !vs
          | _ -> ())
        run.events)
    runs;
  Array.of_list (List.rev !vs)

(* Value tables of the non-identity substitutions, for the
   representative test below: mapping through an array and comparing
   element-wise beats allocating a mapped list per (combo,
   permutation).  [None] when some substitution involves a negative
   value and the tables don't apply. *)
let combo_canon_tables (sym : Symmetry.t) =
  let maxv = ref 0 and minv = ref 0 in
  List.iter
    (fun (perm : Symmetry.perm) ->
      List.iter
        (fun (a, b) ->
          if a > !maxv then maxv := a;
          if b > !maxv then maxv := b;
          if a < !minv then minv := a;
          if b < !minv then minv := b)
        perm.Symmetry.p_value)
    sym.Symmetry.s_perms;
  if !minv < 0 then None
  else
    Some
      (List.filter_map
         (fun (perm : Symmetry.perm) ->
           if perm.Symmetry.p_value = [] then None
           else begin
             let vmap = Array.init (!maxv + 1) Fun.id in
             List.iter (fun (a, b) -> vmap.(a) <- b) perm.Symmetry.p_value;
             Some vmap
           end)
         sym.Symmetry.s_perms)

(* A combo is a representative iff its read vector is lex-least in
   its orbit.  Two distinct combos never share the lex-least vector:
   a permutation fixing the vector fixes every observed value, hence
   maps each reading thread's run to itself. *)
let canonical_combo (sym : Symmetry.t) tables (reads : int array) =
  match tables with
  | Some tables ->
      List.for_all
        (fun (vmap : int array) ->
          let n = Array.length reads in
          let rec go i =
            if i >= n then true
            else
              let v = Array.unsafe_get reads i in
              let v' = if v >= 0 && v < Array.length vmap then Array.unsafe_get vmap v else v in
              if v < v' then true else if v > v' then false else go (i + 1)
          in
          go 0)
        tables
  | None ->
      let reads = Array.to_list reads in
      List.for_all
        (fun (perm : Symmetry.perm) ->
          perm.Symmetry.p_value = []
          || reads <= List.map (Symmetry.map_value perm) reads)
        sym.Symmetry.s_perms

(* Expansion of canonical outcomes into the full set.

   Generic path: apply every permutation's register/memory map to
   every canonical outcome and dedup.  Used only as a fallback - the
   common case goes through the packed fast path below. *)
let expand_generic (sym : Symmetry.t) outcomes =
  List.concat_map
    (fun o ->
      List.map
        (fun perm ->
          {
            registers = Symmetry.map_registers perm o.registers;
            memory = Symmetry.map_memory perm o.memory;
          })
        sym.Symmetry.s_perms)
    (List.sort_uniq compare_outcome outcomes)
  |> List.sort_uniq compare_outcome

(* Fast path.  Permuted threads are emitters, which write no
   registers, so thread permutations fix every register key
   (tid, reg): an image differs from its canonical outcome only by
   the value substitution applied pointwise to register and memory
   values.  When additionally every canonical outcome shares one key
   shape (run combos of a single program) and the values are small
   non-negative ints, an outcome IS its value vector and the vector
   packs into one OCaml int.  Images then cost a table lookup per
   slot, dedup is an int sort, and the packed order coincides with
   [compare_outcome] order (equal keys, value-lexicographic), so
   decoding yields the sorted outcome list directly. *)
let expand_symmetric (sym : Symmetry.t) outcomes =
  if Symmetry.trivial sym then List.sort_uniq compare_outcome outcomes
  else
    match outcomes with
    | [] -> []
    | first :: _ ->
        let rkeys = List.map fst first.registers in
        let mkeys = List.map fst first.memory in
        let same_shape o =
          List.map fst o.registers = rkeys && List.map fst o.memory = mkeys
        in
        let tids_fixed =
          List.for_all
            (fun (t, _) ->
              List.for_all
                (fun p -> p.Symmetry.p_tid.(t) = t)
                sym.Symmetry.s_perms)
            rkeys
        in
        if not (tids_fixed && List.for_all same_shape outcomes) then
          expand_generic sym outcomes
        else begin
          let vec_of o =
            Array.of_list (List.map snd o.registers @ List.map snd o.memory)
          in
          let vecs = List.map vec_of outcomes in
          let slots = List.length rkeys + List.length mkeys in
          let maxv = ref 0 and minv = ref 0 in
          List.iter
            (Array.iter (fun v ->
                 if v > !maxv then maxv := v;
                 if v < !minv then minv := v))
            vecs;
          List.iter
            (fun (p : Symmetry.perm) ->
              List.iter
                (fun (a, b) ->
                  if b > !maxv then maxv := b;
                  if a < 0 || b < 0 then minv := -1)
                p.Symmetry.p_value)
            sym.Symmetry.s_perms;
          let bits =
            let rec go b = if !maxv < 1 lsl b then b else go (b + 1) in
            go 1
          in
          if !minv < 0 || slots = 0 || slots * bits > 62 then
            expand_generic sym outcomes
          else begin
            let vmaps =
              List.map
                (fun (perm : Symmetry.perm) ->
                  let vmap = Array.init (!maxv + 1) Fun.id in
                  List.iter
                    (fun (a, b) -> if a <= !maxv then vmap.(a) <- b)
                    perm.Symmetry.p_value;
                  vmap)
                sym.Symmetry.s_perms
            in
            (* An image depends only on a substitution's restriction
               to the values the vector actually contains, so per
               used-value set keep one substitution per distinct
               restriction: the images of one canonical outcome are
               then produced without duplicates (its orbit exactly),
               typically shrinking the image count by the average
               stabilizer size. *)
            let restrict =
              if !maxv > 62 then fun _ -> vmaps
              else begin
                let cache = Hashtbl.create 8 in
                fun (vec : int array) ->
                  let mask =
                    Array.fold_left (fun m v -> m lor (1 lsl v)) 0 vec
                  in
                  match Hashtbl.find_opt cache mask with
                  | Some l -> l
                  | None ->
                      let seen = Hashtbl.create 16 in
                      let keep =
                        List.filter
                          (fun (vmap : int array) ->
                            let sg = ref [] in
                            for v = !maxv downto 0 do
                              if mask land (1 lsl v) <> 0 then
                                sg := vmap.(v) :: !sg
                            done;
                            if Hashtbl.mem seen !sg then false
                            else begin
                              Hashtbl.add seen !sg ();
                              true
                            end)
                          vmaps
                      in
                      Hashtbl.add cache mask keep;
                      keep
              end
            in
            let buf = ref (Array.make (max 16 (List.length vecs)) 0) in
            let len = ref 0 in
            let push k =
              if !len = Array.length !buf then begin
                let b = Array.make (2 * !len) 0 in
                Array.blit !buf 0 b 0 !len;
                buf := b
              end;
              !buf.(!len) <- k;
              incr len
            in
            List.iter
              (fun vec ->
                List.iter
                  (fun vmap ->
                    let key = ref 0 in
                    for j = 0 to slots - 1 do
                      key :=
                        (!key lsl bits)
                        lor Array.unsafe_get vmap (Array.unsafe_get vec j)
                    done;
                    push !key)
                  (restrict vec))
              vecs;
            let n = !len in
            (* LSD radix sort: packed keys are bounded by
               [slots * bits] bits, and closure-based [Array.sort] is
               an order of magnitude slower on this volume. *)
            let packed =
              let a = ref (Array.sub !buf 0 n) in
              let tmp = ref (Array.make n 0) in
              let count = Array.make 257 0 in
              let shift = ref 0 in
              while !shift < slots * bits do
                Array.fill count 0 257 0;
                let src = !a and dst = !tmp in
                for i = 0 to n - 1 do
                  let d = (Array.unsafe_get src i lsr !shift) land 0xff in
                  count.(d + 1) <- count.(d + 1) + 1
                done;
                for d = 1 to 256 do
                  count.(d) <- count.(d) + count.(d - 1)
                done;
                for i = 0 to n - 1 do
                  let v = Array.unsafe_get src i in
                  let d = (v lsr !shift) land 0xff in
                  Array.unsafe_set dst count.(d) v;
                  count.(d) <- count.(d) + 1
                done;
                a := dst;
                tmp := src;
                shift := !shift + 8
              done;
              !a
            in
            let mask = (1 lsl bits) - 1 in
            let rkeys_a = Array.of_list rkeys in
            let mkeys_a = Array.of_list mkeys in
            let nr = Array.length rkeys_a in
            let nm = Array.length mkeys_a in
            let decode key =
              (* Low-order slots are memory, high-order registers:
                 peel values off the key back to front, consing the
                 lists in their original (sorted) order. *)
              let k = ref key in
              let memory = ref [] in
              for j = nm - 1 downto 0 do
                memory := (Array.unsafe_get mkeys_a j, !k land mask) :: !memory;
                k := !k lsr bits
              done;
              let registers = ref [] in
              for j = nr - 1 downto 0 do
                registers := (Array.unsafe_get rkeys_a j, !k land mask) :: !registers;
                k := !k lsr bits
              done;
              { registers = !registers; memory = !memory }
            in
            let out = ref [] in
            for j = n - 1 downto 0 do
              if j = n - 1 || packed.(j) <> packed.(j + 1) then
                out := decode packed.(j) :: !out
            done;
            !out
          end
        end

(* Run the graph engine over every canonical run combo of [p] (the
   combos [sym] does not fold onto another), passing each canonical
   outcome to [emit]; callers expand or match them through [sym]. *)
let explore_canonical ~counters ~(sym : Symmetry.t) model (p : Program.t) combos emit =
  let tables = combo_canon_tables sym in
  List.iter
    (fun runs ->
      let reads = combo_reads runs in
      if not (canonical_combo sym tables reads) then
        counters.c_symmetry_skips <- counters.c_symmetry_skips + 1
      else begin
        let skel = skeleton_of_runs p runs in
        let static = static_for model skel in
        let registers = registers_of_runs runs in
        let rsym = Symmetry.refine p sym ~reads:(Array.to_list reads) in
        graph_search ~static ~sym:rsym skel ~counters ~emit:(fun ~chains ->
            emit { registers; memory = memory_of_chains skel chains })
      end)
    combos

let allowed_outcomes_stats model (p : Program.t) =
  let t0 = Unix.gettimeofday () in
  let counters = fresh_counters () in
  let combos = run_combos p in
  let sym = Symmetry.detect p in
  let acc = ref [] in
  explore_canonical ~counters ~sym model p combos (fun o -> acc := o :: !acc);
  let outcomes = expand_symmetric sym !acc in
  let stats = stats_of_counters counters ~wall_s:(Unix.gettimeofday () -. t0) in
  record_global stats;
  (outcomes, stats)

let allowed_outcomes model p = fst (allowed_outcomes_stats model p)

exception Found

let exists_outcome model (p : Program.t) pred =
  let t0 = Unix.gettimeofday () in
  let counters = fresh_counters () in
  let combos = run_combos p in
  let sym = Symmetry.detect p in
  (* A canonical outcome stands for its whole orbit. *)
  let hit =
    if Symmetry.trivial sym then pred
    else fun o ->
      List.exists
        (fun perm ->
          pred
            {
              registers = Symmetry.map_registers perm o.registers;
              memory = Symmetry.map_memory perm o.memory;
            })
        sym.Symmetry.s_perms
  in
  let found =
    match
      explore_canonical ~counters ~sym model p combos (fun o -> if hit o then raise Found)
    with
    | () -> false
    | exception Found -> true
  in
  record_global (stats_of_counters counters ~wall_s:(Unix.gettimeofday () -. t0));
  found

let outcome_allowed model p query =
  let matches (full : outcome) =
    List.for_all
      (fun (key, v) ->
        match List.assoc_opt key full.registers with Some v' -> v = v' | None -> false)
      query.registers
    && List.for_all
         (fun (l, v) ->
           match List.assoc_opt l full.memory with Some v' -> v = v' | None -> false)
         query.memory
  in
  exists_outcome model p matches

(* ------------------------------------------------------------------ *)
(* The candidate walk: generate and test over [search].

   One pass over every run combination's candidates, in [search]'s
   order.  A candidate's final state is read off its chains; only a
   candidate whose state passes the predicate gets rf/co relations,
   checked against the combination's static context, which is taken
   at most once, lazily, from the memo the graph engine uses.  The
   walk lists every candidate as it goes, so when no candidate both
   passes and is allowed, the lists are the exhaustive candidate set
   of a forbidden certificate and nothing is enumerated twice.  Only a
   combination that has candidates is kept, and of its skeleton only
   the lazily built execution: most run combinations of a program with
   many runs (392 of CAS+both's 400) have a read no write can feed.  *)
(* ------------------------------------------------------------------ *)

type candidate = { rf : (int * int) list; co : (Instr.loc * int list) list }

type combination = {
  execution : Execution.t;
  registers : ((int * Instr.reg) * Instr.value) list;
  candidates : candidate list;
}

type walk = Witness of Execution.t * outcome | Exhausted of combination list * int

(* [on_match] gets every candidate whose final state passes [pred]
   and which the model allows; it may raise to end the walk. *)
let candidate_walk model (p : Program.t) pred ~on_match =
  let count = ref 0 in
  let combos =
    List.filter_map
      (fun runs ->
        let skel = skeleton_of_runs p runs in
        let registers = registers_of_runs runs in
        let static = lazy (static_for model skel) in
        let listed = ref [] in
        search skel ~emit:(fun ~rf_pairs ~chains ->
            incr count;
            listed := (rf_pairs, chains) :: !listed;
            let o = { registers; memory = memory_of_chains skel chains } in
            if pred o then begin
              let rf = rf_relation skel rf_pairs and co = co_relation skel chains in
              if Axiomatic.consistent_static (Lazy.force static) ~rf ~co then
                on_match (candidate skel ~rf ~co) o
            end);
        if !listed = [] then None else Some (skel.sk_exec, registers, !listed))
      (run_combos p)
  in
  (combos, !count)

let walk model p pred =
  let exception Found of Execution.t * outcome in
  match candidate_walk model p pred ~on_match:(fun x o -> raise (Found (x, o))) with
  | exception Found (x, o) -> Witness (x, o)
  | combos, count ->
      (* [search] pushes rf pairs in read order and chains in location
         order; a candidate lists the sorted pairs and the
         location-sorted chains. *)
      let as_candidate (rf, chains) = { rf = List.sort compare rf; co = List.rev chains } in
      Exhausted
        ( List.map
            (fun (execution, registers, listed) ->
              {
                execution = Lazy.force execution;
                registers;
                candidates = List.rev_map as_candidate listed;
              })
            combos,
          count )

let filtered_outcomes model p =
  let acc = ref [] in
  ignore (candidate_walk model p (fun _ -> true) ~on_match:(fun _ o -> acc := o :: !acc));
  List.sort_uniq compare_outcome !acc

let combinations p =
  List.map
    (fun runs -> (Lazy.force (skeleton_of_runs p runs).sk_exec, registers_of_runs runs))
    (run_combos p)
