open Wmm_isa
open Wmm_util

type config = {
  window_size : int;
  fifo_buffer : bool;
  reorder_loads : bool;
  synchronous_stores : bool;
}

let relaxed_config =
  { window_size = 8; fifo_buffer = false; reorder_loads = true; synchronous_stores = false }
let tso_config =
  { window_size = 8; fifo_buffer = true; reorder_loads = false; synchronous_stores = false }
let sc_config =
  { window_size = 1; fifo_buffer = true; reorder_loads = false; synchronous_stores = true }

type outcome = {
  registers : ((int * Instr.reg) * Instr.value) list;
  memory : (Instr.loc * Instr.value) list;
}

let compare_outcome (a : outcome) (b : outcome) = compare a b

module IM = Map.Make (Int)

(* Operand as resolved at decode time: immediates and
   already-concrete register values become [Val]; registers whose
   program-order-latest producer is still in flight become
   [From eid]. *)
type source = Val of int | From of int

(* A decoded, possibly executed instruction in the window. *)
type entry = {
  eid : int;
  at_pc : int;
  instr : Instr.t;
  sources : source list;  (** In the order of [Instr.input_regs]. *)
  executed : bool;
  result : int;  (** Register result (load value / ALU / stxr status); 0 otherwise. *)
  store_value : int;  (** Value written by an executed store; 0 otherwise. *)
  resolved_loc : int;  (** Location of an executed memory access; -1 otherwise. *)
}

type binding = Value of int | Producer of int

type buffer_entry =
  | Bstore of { loc : int; value : int; release : bool; eid : int }
      (** [eid] identifies the originating store so loads only
          forward from program-order-earlier entries. *)
  | Bmarker  (** Store-order marker from dmb ishst / lwsync / eieio. *)

type tstate = {
  pc : int;
  next_eid : int;
  window : entry list;  (** Oldest first. *)
  bindings : binding IM.t;
  written : unit IM.t;  (** Registers architecturally written so far. *)
}

type state = {
  threads : tstate array;
  buffers : buffer_entry list array;
  memory : int IM.t;
  monitors : int option array;  (** Per-thread exclusive monitor (location). *)
}

type action = Execute of int * int  (** thread, eid *) | Drain of int * int  (** thread, buffer index *)

(* ------------------------------------------------------------------ *)
(* Decoding / fetch.                                                   *)
(* ------------------------------------------------------------------ *)

let resolve_operand bindings = function
  | Instr.Imm v -> Val v
  | Instr.Reg r -> (
      match IM.find_opt r bindings with
      | Some (Value v) -> Val v
      | Some (Producer eid) -> From eid
      | None -> Val 0)

let operands_of_instr instr bindings =
  List.map (fun r -> resolve_operand bindings (Instr.Reg r)) (Instr.input_regs instr)

let has_unresolved_branch window =
  List.exists (fun e -> Instr.is_branch e.instr && not e.executed) window

(* Fetch instructions into the window up to capacity, stopping at an
   unresolved branch (no speculation). *)
let fetch config (program : Program.thread) t =
  let rec go t =
    if
      List.length t.window >= config.window_size
      || has_unresolved_branch t.window
      || t.pc < 0
      || t.pc >= Array.length program
    then t
    else begin
      let instr = program.(t.pc) in
      let sources = operands_of_instr instr t.bindings in
      let entry =
        {
          eid = t.next_eid;
          at_pc = t.pc;
          instr;
          sources;
          executed = false;
          result = 0;
          store_value = 0;
          resolved_loc = -1;
        }
      in
      let bindings =
        match Instr.output_reg instr with
        | Some r -> IM.add r (Producer entry.eid) t.bindings
        | None -> t.bindings
      in
      go
        {
          t with
          pc = t.pc + 1;
          next_eid = t.next_eid + 1;
          window = t.window @ [ entry ];
          bindings;
        }
    end
  in
  go t

(* Retire executed entries from the window head, substituting their
   results into later operands and the register bindings. *)
let retire t =
  (* Only [r], the retiring entry's output, can still be bound to it. *)
  let substitute eid r value t =
    let reads_it = List.exists (function From i -> i = eid | Val _ -> false) in
    let window =
      List.map
        (fun e ->
          if reads_it e.sources then
            {
              e with
              sources = List.map (function From i when i = eid -> Val value | s -> s) e.sources;
            }
          else e)
        t.window
    in
    let bindings =
      IM.update r (function Some (Producer i) when i = eid -> Some (Value value) | b -> b)
        t.bindings
    in
    { t with window; bindings }
  in
  let rec go t =
    match t.window with
    | e :: rest when e.executed ->
        let t = { t with window = rest } in
        let t =
          match Instr.output_reg e.instr with
          | Some r -> substitute e.eid r e.result { t with written = IM.add r () t.written }
          | None -> t
        in
        go t
    | _ -> t
  in
  go t

(* ------------------------------------------------------------------ *)
(* Readiness.                                                          *)
(* ------------------------------------------------------------------ *)

let entry_value window eid =
  let rec find = function
    | [] -> None
    | e :: rest -> if e.eid = eid then Some e else find rest
  in
  match find window with
  | Some e when e.executed -> Some e.result
  | Some _ | None -> None

let source_value window = function
  | Val v -> Some v
  | From eid -> entry_value window eid

let sources_ready window e = List.for_all (fun s -> source_value window s <> None) e.sources

let source_values window e = List.map (fun s -> Option.get (source_value window s)) e.sources

(* The ordering roles of an instruction, as a bit set.  A barrier
   can hold several: [lwsync] is a load barrier and a store marker. *)
let role_load = 1
let role_store = 2
let role_acquire = 4  (* an acquire (or stronger) load *)
let role_release = 8  (* a release (or stronger) store *)
let role_full = 16  (* dmb ish / sync / fence sc *)
let role_load_barrier = 32
let role_store_marker = 64
let role_pipeline = 128  (* isb / isync *)

let roles = function
  | Instr.Load { order; _ } | Instr.Load_exclusive { order; _ } -> (
      match order with
      | Instr.Acquire | Instr.Acq_rel | Instr.Sc -> role_load lor role_acquire
      | Instr.Plain | Instr.Release -> role_load)
  | Instr.Store { order; _ } | Instr.Store_exclusive { order; _ } -> (
      match order with
      | Instr.Release | Instr.Acq_rel | Instr.Sc -> role_store lor role_release
      | Instr.Plain | Instr.Acquire -> role_store)
  | Instr.Barrier (Instr.Dmb_ish | Instr.Sync | Instr.Fence_sc) -> role_full
  | Instr.Barrier (Instr.Dmb_ishld | Instr.Fence_acq) -> role_load_barrier
  | Instr.Barrier (Instr.Lwsync | Instr.Fence_acq_rel) -> role_load_barrier lor role_store_marker
  | Instr.Barrier (Instr.Dmb_ishst | Instr.Eieio | Instr.Fence_rel) -> role_store_marker
  | Instr.Barrier (Instr.Isb | Instr.Isync) -> role_pipeline
  | Instr.Nop | Instr.Mov _ | Instr.Op _ | Instr.Cbnz _ | Instr.Cbz _ -> 0

let is_load e = roles e.instr land role_load <> 0
let is_store e = roles e.instr land role_store <> 0

(* The roles still owed by the unexecuted entries of a window prefix;
   [role_unexecuted] marks that there is at least one. *)
let role_unexecuted = 256

let owed pending o = if o.executed then pending else pending lor roles o.instr lor role_unexecuted

(* [f] holds for every unexecuted entry older than [e]. *)
let older_all window e f =
  let rec go = function
    | o :: rest when o.eid < e.eid -> (o.executed || f o) && go rest
    | _ -> true
  in
  go window

(* The address a not-yet-executed memory entry will access, when its
   address operand is already resolvable. *)
let pending_address window e =
  match e.instr with
  | Instr.Load { addr; _ }
  | Instr.Load_exclusive { addr; _ }
  | Instr.Store { addr; _ }
  | Instr.Store_exclusive { addr; _ } -> (
      let source =
        match addr with
        | Instr.Imm l -> Some (Val l)
        | Instr.Reg _ -> (
            (* The address register is the only input for loads; for
               stores it follows the value sources. *)
            match (e.instr, e.sources) with
            | (Instr.Load _ | Instr.Load_exclusive _), [ s ] -> Some s
            | Instr.Store { src = Instr.Reg _; _ }, [ _; s ]
            | Instr.Store_exclusive { src = Instr.Reg _; _ }, [ _; s ] ->
                Some s
            | Instr.Store { src = Instr.Imm _; _ }, [ s ]
            | Instr.Store_exclusive { src = Instr.Imm _; _ }, [ s ] ->
                Some s
            | _ -> None)
      in
      match source with Some s -> source_value window s | None -> None)
  | _ -> None

(* Remove leading markers: a marker with nothing before it orders
   nothing anymore. *)
let rec normalise_buffer = function Bmarker :: rest -> normalise_buffer rest | b -> b

let buffer_has_release buffer =
  List.exists (function Bstore { release = true; _ } -> true | _ -> false) buffer

(* Whether entry [e] may execute now.  [pending] is the fold of
   {!owed} over the entries older than [e]. *)
let can_execute config t buffer ~pending e =
  let owes r = pending land r <> 0 in
  if not (sources_ready t.window e) then false
  else if owes role_pipeline then false
  else if owes role_acquire && roles e.instr <> role_pipeline then false
  else
    match e.instr with
    | Instr.Nop | Instr.Mov _ | Instr.Op _ -> true
    | Instr.Cbnz _ | Instr.Cbz _ -> true
    | Instr.Barrier (Instr.Dmb_ish | Instr.Sync | Instr.Fence_sc) -> pending = 0 && buffer = []
    | Instr.Barrier (Instr.Dmb_ishld | Instr.Fence_acq) -> not (owes role_load)
    | Instr.Barrier (Instr.Lwsync | Instr.Fence_rel | Instr.Fence_acq_rel) ->
        not (owes (role_load lor role_store))
    | Instr.Barrier (Instr.Dmb_ishst | Instr.Eieio) -> not (owes role_store)
    | Instr.Barrier (Instr.Isb | Instr.Isync) -> pending = 0
    | Instr.Store { order; _ } | Instr.Store_exclusive { order; _ } ->
        (* Stores enter the buffer in program order and never pass
           barriers that order stores: a load barrier orders its
           older loads before every younger access, stores included. *)
        (not (owes role_store))
        && (config.reorder_loads || not (owes role_load))
        && (not (owes (role_full lor role_store_marker lor role_pipeline lor role_load_barrier)))
        && (match order with
           | Instr.Release | Instr.Acq_rel | Instr.Sc -> pending = 0
           | Instr.Plain | Instr.Acquire -> true)
        &&
        (* A store-exclusive writes through: it may not overtake an
           own buffered store to the same location. *)
        (match e.instr with
        | Instr.Store_exclusive _ -> (
            match pending_address t.window e with
            | None -> false
            | Some l ->
                not
                  (List.exists
                     (function Bstore { loc; _ } -> loc = l | Bmarker -> false)
                     buffer))
        | _ -> true)
    | Instr.Load { order; _ } | Instr.Load_exclusive { order; _ } -> (
        let this_addr = pending_address t.window e in
        let load_order_ok =
          if config.reorder_loads then
            (* Even relaxed machines keep same-location loads in
               order (coherence, CoRR); a load with an unresolved
               address blocks younger loads conservatively. *)
            older_all t.window e (fun o ->
                (not (is_load o))
                ||
                match (pending_address t.window o, this_addr) with
                | Some l', Some l -> l' <> l
                | _ -> false)
          else not (owes role_load)
        in
        (* A load may not bypass an older store whose address is
           unknown, nor an older unexecuted store to the same
           location (it will forward from it once executed). *)
        let store_hazard_clear =
          match this_addr with
          | None -> false
          | Some l ->
              older_all t.window e (fun o ->
                  (not (is_store o))
                  ||
                  match pending_address t.window o with
                  | None -> false
                  | Some l' -> l' <> l)
        in
        (not (owes (role_full lor role_load_barrier)))
        && load_order_ok && store_hazard_clear
        &&
        match order with
        | Instr.Acquire | Instr.Acq_rel | Instr.Sc ->
            (* RCsc: a load-acquire is ordered after every older
               store-release, whether still in the window or in the
               buffer. *)
            (not (buffer_has_release buffer)) && not (owes role_release)
        | Instr.Plain | Instr.Release -> true)

(* ------------------------------------------------------------------ *)
(* Effects.                                                            *)
(* ------------------------------------------------------------------ *)

let forwardable_value window buffer eid loc =
  (* Youngest program-order-earlier store to [loc] still visible
     locally, across both the window and the store buffer (a store
     can appear in both; the values agree). *)
  let candidates =
    List.filter_map
      (fun o ->
        if o.eid < eid && is_store o && o.executed && o.resolved_loc = loc then
          Some (o.eid, o.store_value)
        else None)
      window
    @ List.filter_map
        (function
          | Bstore { loc = l; value; eid = store_eid; _ } when l = loc && store_eid < eid ->
              Some (store_eid, value)
          | Bstore _ | Bmarker -> None)
        buffer
  in
  List.fold_left
    (fun acc (store_eid, value) ->
      match acc with
      | Some (best, _) when best >= store_eid -> acc
      | _ -> Some (store_eid, value))
    None candidates
  |> Option.map snd

let mark_executed ?(store_value = 0) t eid ~result ~resolved_loc =
  {
    t with
    window =
      List.map
        (fun e ->
          if e.eid = eid then { e with executed = true; result; store_value; resolved_loc }
          else e)
        t.window;
  }

let read_memory memory loc = match IM.find_opt loc memory with Some v -> v | None -> 0

(* [emit] receives the canonical memory event of each executed
   instruction (reads, globally visible writes, fences) keyed by the
   entry's eid, which numbers instructions in fetch = program order -
   sorting a thread's emissions by eid therefore reconstructs the
   program-order event trace even when the window executed them out of
   order.  Failed store-exclusives emit nothing, matching the
   canonical trace representation. *)
let execute_entry ?(emit = fun ~tid:_ ~eid:_ _ -> ()) config (program : Program.thread)
    state tid eid =
  let t = state.threads.(tid) in
  let e = List.find (fun e -> e.eid = eid) t.window in
  let values = source_values t.window e in
  let threads = Array.copy state.threads in
  let buffers = Array.copy state.buffers in
  let monitors = Array.copy state.monitors in
  let memory = ref state.memory in
  let finish t' =
    threads.(tid) <- fetch config program (retire t');
    { threads; buffers; memory = !memory; monitors }
  in
  (* A write to [loc] becoming visible revokes every other thread's
     exclusive monitor on it. *)
  let revoke_monitors loc =
    Array.iteri
      (fun i m -> if i <> tid && m = Some loc then monitors.(i) <- None)
      monitors
  in
  match e.instr with
  | Instr.Nop -> finish (mark_executed t eid ~result:0 ~resolved_loc:(-1))
  | Instr.Mov { src; _ } ->
      let v =
        match src with
        | Instr.Imm v -> v
        | Instr.Reg _ -> ( match values with [ v ] -> v | _ -> 0)
      in
      finish (mark_executed t eid ~result:v ~resolved_loc:(-1))
  | Instr.Op { op; a; b; _ } ->
      let take_imm operand values =
        match operand with
        | Instr.Imm v -> (v, values)
        | Instr.Reg _ -> (
            match values with v :: rest -> (v, rest) | [] -> (0, []))
      in
      let va, rest = take_imm a values in
      let vb, _ = take_imm b rest in
      finish (mark_executed t eid ~result:(Instr.eval_binop op va vb) ~resolved_loc:(-1))
  | Instr.Cbnz { offset; _ } | Instr.Cbz { offset; _ } ->
      let v = match values with [ v ] -> v | _ -> 0 in
      let taken = match e.instr with Instr.Cbnz _ -> v <> 0 | _ -> v = 0 in
      let t = mark_executed t eid ~result:0 ~resolved_loc:(-1) in
      let t = if taken then { t with pc = e.at_pc + 1 + offset } else t in
      finish t
  | Instr.Barrier b ->
      emit ~tid ~eid (Wmm_cert.Trace.Fence b);
      let t = mark_executed t eid ~result:0 ~resolved_loc:(-1) in
      (match b with
      | Instr.Dmb_ishst | Instr.Lwsync | Instr.Eieio | Instr.Fence_rel
      | Instr.Fence_acq_rel ->
          (* Normalise: a marker with nothing before it orders
             nothing (and would wedge full barriers waiting on an
             empty buffer). *)
          buffers.(tid) <- normalise_buffer (buffers.(tid) @ [ Bmarker ])
      | Instr.Dmb_ish | Instr.Dmb_ishld | Instr.Isb | Instr.Sync | Instr.Isync
      | Instr.Fence_acq | Instr.Fence_sc ->
          ());
      finish t
  | Instr.Store { src; addr; order } ->
      let value, loc =
        match (src, addr, values) with
        | Instr.Imm v, Instr.Imm l, [] -> (v, l)
        | Instr.Imm v, Instr.Reg _, [ l ] -> (v, l)
        | Instr.Reg _, Instr.Imm l, [ v ] -> (v, l)
        | Instr.Reg _, Instr.Reg _, [ v; l ] -> (v, l)
        | _ -> failwith "Relaxed: malformed store operands"
      in
      emit ~tid ~eid (Wmm_cert.Trace.Write { loc; value; order; rmw = false });
      if config.synchronous_stores then begin
        memory := IM.add loc value !memory;
        revoke_monitors loc
      end
      else
        buffers.(tid) <-
          buffers.(tid) @ [ Bstore { loc; value; release = order = Instr.Release; eid } ];
      finish (mark_executed ~store_value:value t eid ~result:value ~resolved_loc:loc)
  | Instr.Load { addr; order; _ } | Instr.Load_exclusive { addr; order; _ } ->
      let loc =
        match (addr, values) with
        | Instr.Imm l, [] -> l
        | Instr.Reg _, [ l ] -> l
        | _ -> failwith "Relaxed: malformed load operands"
      in
      let value =
        match forwardable_value t.window state.buffers.(tid) eid loc with
        | Some v -> v
        | None -> read_memory state.memory loc
      in
      emit ~tid ~eid (Wmm_cert.Trace.Read { loc; value; order });
      (match e.instr with
      | Instr.Load_exclusive _ -> monitors.(tid) <- Some loc
      | _ -> ());
      finish (mark_executed t eid ~result:value ~resolved_loc:loc)
  | Instr.Store_exclusive { src; addr; order; _ } ->
      let value, loc =
        match (src, addr, values) with
        | Instr.Imm v, Instr.Imm l, [] -> (v, l)
        | Instr.Imm v, Instr.Reg _, [ l ] -> (v, l)
        | Instr.Reg _, Instr.Imm l, [ v ] -> (v, l)
        | Instr.Reg _, Instr.Reg _, [ v; l ] -> (v, l)
        | _ -> failwith "Relaxed: malformed store-exclusive operands"
      in
      if monitors.(tid) = Some loc then begin
        (* Success: the exclusive write commits through the coherence
           layer immediately, revoking competing monitors. *)
        emit ~tid ~eid (Wmm_cert.Trace.Write { loc; value; order; rmw = true });
        memory := IM.add loc value !memory;
        monitors.(tid) <- None;
        revoke_monitors loc;
        finish (mark_executed ~store_value:value t eid ~result:0 ~resolved_loc:loc)
      end
      else begin
        monitors.(tid) <- None;
        finish (mark_executed t eid ~result:1 ~resolved_loc:(-1))
      end

(* ------------------------------------------------------------------ *)
(* Store buffer drains.                                                *)
(* ------------------------------------------------------------------ *)

(* A buffered store may not become globally visible while an older
   same-address (or unresolved-address) load is still pending in the
   window: draining it would let that load read a program-order-later
   value, violating coherence (CoWR). *)
let blocked_by_older_load window entry_eid entry_loc =
  List.exists
    (fun o ->
      is_load o && (not o.executed) && o.eid < entry_eid
      &&
      match pending_address window o with
      | None -> true
      | Some l -> l = entry_loc)
    window

(* The buffer indices that may drain now, each with the location it
   writes. *)
let drainable config window buffer =
  let buffer = normalise_buffer buffer in
  match buffer with
  | [] -> []
  | _ when config.fifo_buffer -> (
      match buffer with
      | Bstore { eid; loc; _ } :: _ when not (blocked_by_older_load window eid loc) ->
          [ (0, loc) ]
      | _ -> [])
  | _ ->
      (* Any store before the first marker may drain, except when an
         earlier entry targets the same location (per-location FIFO),
         a release entry intervenes (release = full marker), or an
         older same-address load is still pending. *)
      let rec candidates idx seen_locs acc = function
        | [] -> List.rev acc
        | Bmarker :: _ -> List.rev acc
        | Bstore { release = true; loc; eid; _ } :: _ ->
            (* A release store may drain only if it is first. *)
            let acc =
              if idx = 0 && not (blocked_by_older_load window eid loc) then (idx, loc) :: acc
              else acc
            in
            List.rev acc
        | Bstore { loc; eid; _ } :: rest ->
            let acc =
              if List.mem loc seen_locs || blocked_by_older_load window eid loc then acc
              else (idx, loc) :: acc
            in
            candidates (idx + 1) (loc :: seen_locs) acc rest
      in
      candidates 0 [] [] buffer

let drain_at config state tid idx =
  let buffer = normalise_buffer state.buffers.(tid) in
  let rec remove i = function
    | [] -> failwith "Relaxed: drain index out of range"
    | b :: rest ->
        if i = 0 then (b, rest)
        else begin
          let removed, remaining = remove (i - 1) rest in
          (removed, b :: remaining)
        end
  in
  let removed, remaining = remove idx buffer in
  match removed with
  | Bmarker -> failwith "Relaxed: draining a marker"
  | Bstore { loc; value; _ } ->
      let buffers = Array.copy state.buffers in
      buffers.(tid) <- normalise_buffer remaining;
      let monitors = Array.copy state.monitors in
      Array.iteri
        (fun i m -> if i <> tid && m = Some loc then monitors.(i) <- None)
        monitors;
      ignore config;
      { state with buffers; memory = IM.add loc value state.memory; monitors }

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

(* An enabled action with its footprint: its thread, and the location
   it reads or writes, or -1 when it touches only its own thread's
   window, bindings and buffer. *)
type move = { act : action; tid : int; loc : int; writes : bool }

let address window e =
  match pending_address window e with
  | Some l -> l
  | None -> failwith "Relaxed: enabled access with an unresolved address"

(* A load reads its location; a store-exclusive (successful or not)
   and a synchronous store write theirs.  A buffered store, like every
   other instruction, is thread-local until its drain. *)
let execute_move config tid window e =
  let loc, writes =
    match e.instr with
    | Instr.Load _ | Instr.Load_exclusive _ -> (address window e, false)
    | Instr.Store_exclusive _ -> (address window e, true)
    | Instr.Store _ when config.synchronous_stores -> (address window e, true)
    | _ -> (-1, false)
  in
  { act = Execute (tid, e.eid); tid; loc; writes }

let enabled_moves config state =
  let moves = ref [] in
  Array.iteri
    (fun tid t ->
      let buffer = state.buffers.(tid) in
      ignore
        (List.fold_left
           (fun pending e ->
             if (not e.executed) && can_execute config t buffer ~pending e then
               moves := execute_move config tid t.window e :: !moves;
             owed pending e)
           0 t.window);
      List.iter
        (fun (idx, loc) -> moves := { act = Drain (tid, idx); tid; loc; writes = true } :: !moves)
        (drainable config t.window buffer))
    state.threads;
  List.rev !moves

let apply_action ?emit config (program : Program.t) state = function
  | Execute (tid, eid) ->
      execute_entry ?emit config program.Program.threads.(tid) state tid eid
  | Drain (tid, idx) -> drain_at config state tid idx

let initial_state (program : Program.t) config =
  let memory =
    List.fold_left
      (fun acc l -> IM.add l (Program.initial_value program l) acc)
      IM.empty (Program.locations program)
  in
  let threads =
    Array.map
      (fun _ ->
        { pc = 0; next_eid = 0; window = []; bindings = IM.empty; written = IM.empty })
      program.Program.threads
  in
  Array.iteri
    (fun tid t -> threads.(tid) <- fetch config program.Program.threads.(tid) t)
    threads;
  {
    threads;
    buffers = Array.map (fun _ -> []) program.Program.threads;
    memory;
    monitors = Array.map (fun _ -> None) program.Program.threads;
  }

let finished state =
  Array.for_all (fun t -> t.window = []) state.threads
  && Array.for_all (fun b -> normalise_buffer b = []) state.buffers

let outcome_of_state (program : Program.t) state =
  let registers =
    Array.to_list state.threads
    |> List.mapi (fun tid t ->
           IM.fold
             (fun r () acc ->
               let v =
                 match IM.find_opt r t.bindings with
                 | Some (Value v) -> v
                 | Some (Producer _) | None -> 0
               in
               ((tid, r), v) :: acc)
             t.written [])
    |> List.concat |> List.sort compare
  in
  let memory =
    List.map (fun l -> (l, read_memory state.memory l)) (Program.locations program)
  in
  { registers; memory }

let run_traced config ~seed (program : Program.t) =
  (match Program.validate program with Ok () -> () | Error m -> invalid_arg m);
  let traces = Array.map (fun _ -> ref []) program.Program.threads in
  let emit ~tid ~eid action = traces.(tid) := (eid, action) :: !(traces.(tid)) in
  let rng = Rng.create seed in
  let rec go state steps =
    if steps > 100_000 then failwith "Relaxed.run_traced: step limit exceeded";
    match enabled_moves config state with
    | [] ->
        if finished state then outcome_of_state program state
        else failwith "Relaxed.run_traced: machine deadlocked"
    | moves ->
        let m = Rng.choose rng (Array.of_list moves) in
        go (apply_action ~emit config program state m.act) (steps + 1)
  in
  let outcome = go (initial_state program config) 0 in
  let per_thread =
    Array.map
      (fun entries ->
        List.sort (fun (a, _) (b, _) -> compare a b) !entries |> List.map snd)
      traces
  in
  (outcome, per_thread)

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration: a sleep-set search over compact state keys. *)
(* ------------------------------------------------------------------ *)

(* Zigzag varint: small magnitudes of either sign take one byte. *)
let rec add_varint buf z =
  if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr z)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (z land 0x7f lor 0x80));
    add_varint buf (z lsr 7)
  end

let add_int buf n = add_varint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let add_tagged buf tag v =
  Buffer.add_char buf tag;
  add_int buf v

let rec add_all buf add = function
  | [] -> ()
  | x :: rest ->
      add buf x;
      add_all buf add rest

let add_list buf add l =
  add_int buf (List.length l);
  add_all buf add l

let add_source buf = function Val v -> add_tagged buf '\000' v | From i -> add_tagged buf '\001' i

(* An unexecuted entry's [result], [store_value] and [resolved_loc]
   still hold their fetch-time values, so only an executed one writes
   them. *)
let add_entry buf e =
  add_int buf e.eid;
  add_int buf e.at_pc;
  if e.executed then begin
    Buffer.add_char buf '\001';
    add_int buf e.result;
    add_int buf e.store_value;
    add_int buf e.resolved_loc
  end
  else Buffer.add_char buf '\000';
  add_list buf add_source e.sources

let add_binding buf r b =
  add_int buf r;
  match b with Value v -> add_tagged buf '\000' v | Producer i -> add_tagged buf '\001' i

let add_buffered buf = function
  | Bstore { loc; value; release; eid } ->
      add_tagged buf (if release then '\001' else '\000') loc;
      add_int buf value;
      add_int buf eid
  | Bmarker -> Buffer.add_char buf '\002'

(* The key of a state: per thread its pc, every window entry but its
   [instr] (which [at_pc] determines) and its bindings; then buffers,
   memory and monitors.  Lists and maps are length-prefixed, so equal
   keys mean equal states up to [instr], [next_eid] and [written]. *)
let state_key buf state =
  Buffer.clear buf;
  Array.iter
    (fun t ->
      add_int buf t.pc;
      add_list buf add_entry t.window;
      add_int buf (IM.cardinal t.bindings);
      IM.iter (add_binding buf) t.bindings)
    state.threads;
  Array.iter (fun b -> add_list buf add_buffered b) state.buffers;
  add_int buf (IM.cardinal state.memory);
  IM.iter
    (fun l v ->
      add_int buf l;
      add_int buf v)
    state.memory;
  Array.iter
    (function None -> Buffer.add_char buf '\000' | Some l -> add_tagged buf '\001' l)
    state.monitors;
  Buffer.contents buf

let same_act a b =
  match (a, b) with
  | Execute (t, e), Execute (t', e') | Drain (t, e), Drain (t', e') -> t = t' && e = e'
  | Execute _, Drain _ | Drain _, Execute _ -> false

let asleep sleep m = List.exists (fun s -> same_act s.act m.act) sleep

(* Actions of different threads commute unless they touch the same
   location and one of them writes. *)
let independent a b =
  a.tid <> b.tid && (a.loc < 0 || a.loc <> b.loc || not (a.writes || b.writes))

(* Sleep sets with state caching (Godefroid 1996).  Enabledness is
   thread-local, so an action put to sleep stays enabled until an
   action it depends on wakes it.  Each visited state keeps the actions
   no visit has explored from it yet; a revisit explores those the
   current path has woken, and keeps the intersection.  A state whose
   enabled actions are all asleep is not final: only one with no
   enabled action is.  [final] sees every final state reached; a state
   for which [pruned] holds is neither explored nor cached, so the
   search over the other states is the one it would be without it. *)
let search ~who ~max_states ~pruned ~final config (program : Program.t) =
  (match Program.validate program with Ok () -> () | Error m -> invalid_arg m);
  let seen : (string, move list ref) Hashtbl.t = Hashtbl.create 256 in
  let visited = ref 0 in
  let buf = Buffer.create 256 in
  let rec explore state sleep =
    if not (pruned state) then
      let key = state_key buf state in
      match Hashtbl.find_opt seen key with
      | Some unexplored ->
          let woken = List.filter (fun m -> not (asleep sleep m)) !unexplored in
          if woken <> [] then begin
            let sleep = List.filter (asleep sleep) !unexplored in
            unexplored := sleep;
            branch state sleep woken
          end
      | None -> (
          incr visited;
          if !visited land 1023 = 0 then Cancel.check_ambient ();
          if !visited > max_states then failwith (who ^ ": state limit exceeded");
          Hashtbl.add seen key (ref sleep);
          match enabled_moves config state with
          | [] ->
              if finished state then final state
              else failwith (who ^ ": machine deadlocked")
          | moves -> branch state sleep (List.filter (fun m -> not (asleep sleep m)) moves))
  (* Explore [todo] from [state] in order; each action then sleeps in
     the subtrees of its later siblings that it is independent of. *)
  and branch state sleep todo =
    ignore
      (List.fold_left
         (fun sleep m ->
           explore (apply_action config program state m.act) (List.filter (independent m) sleep);
           m :: sleep)
         sleep todo)
  in
  explore (initial_state program config) []

let default_max_states = 500_000

let enumerate ?(max_states = default_max_states) config program =
  let outcomes = Hashtbl.create 64 in
  search ~who:"Relaxed.enumerate" ~max_states
    ~pruned:(fun _ -> false)
    ~final:(fun state -> Hashtbl.replace outcomes (outcome_of_state program state) ())
    config program;
  Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] |> List.sort compare_outcome

exception Reached

(* A thread that has finished (empty window, [pc] past its code) never
   changes its registers again, so once one of them differs from the
   value [registers] names for it, or was never written, no final state
   below satisfies the condition.  With an empty window every fetched
   write has retired, so the bindings hold exactly the written
   registers, each as a [Value]: the registers [outcome_of_state]
   reports. *)
let exists_outcome config (program : Program.t) ~registers ~memory =
  let code = program.Program.threads in
  let n = Array.length code in
  (* A register of a thread the program lacks is never written. *)
  let threads_exist = List.for_all (fun ((tid, _), _) -> tid >= 0 && tid < n) registers in
  let wanted = Array.make n [] in
  List.iter
    (fun ((tid, r), v) -> if tid >= 0 && tid < n then wanted.(tid) <- (r, v) :: wanted.(tid))
    registers;
  let holds tid t =
    List.for_all
      (fun (r, v) -> match IM.find_opt r t.bindings with Some (Value v') -> v' = v | _ -> false)
      wanted.(tid)
  in
  let pruned state =
    let rec any tid =
      tid < n
      &&
      let t = state.threads.(tid) in
      (t.window = [] && t.pc >= Array.length code.(tid) && not (holds tid t)) || any (tid + 1)
    in
    any 0
  in
  (* A location the program never names is 0 in an outcome. *)
  let locations = Program.locations program in
  let satisfied state =
    let rec all tid = tid >= n || (holds tid state.threads.(tid) && all (tid + 1)) in
    threads_exist
    && all 0
    && List.for_all
         (fun (l, v) -> v = if List.mem l locations then read_memory state.memory l else 0)
         memory
  in
  match
    search ~who:"Relaxed.exists_outcome" ~max_states:default_max_states ~pruned
      ~final:(fun state -> if satisfied state then raise_notrace Reached)
      config program
  with
  | () -> false
  | exception Reached -> true
