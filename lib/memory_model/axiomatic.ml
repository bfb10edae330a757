open Wmm_isa

type model = Sc | Tso | Arm | Power | Rc11

let all_models = [ Sc; Tso; Arm; Power; Rc11 ]

let model_name = function
  | Sc -> "SC"
  | Tso -> "TSO"
  | Arm -> "ARMv8"
  | Power -> "POWER"
  | Rc11 -> "RC11"

let hardware_models = [ Sc; Tso; Arm; Power ]

let model_for_arch = function Arch.Armv8 -> Arm | Arch.Power7 -> Power

module B = Bitrel

(* ------------------------------------------------------------------ *)
(* Static context: everything derivable from the events, program
   order and dependency relations alone - i.e. everything that stays
   fixed while the enumerator varies rf and co.  Hoisting this out of
   the per-candidate check is the main reason exploration is fast:
   fence orders, isync restoration and the static part of preserved
   program order are computed once per run combination instead of
   once per candidate.                                                 *)
(* ------------------------------------------------------------------ *)

type static = {
  model : model;
  n : int;
  tids : int array;
  read_m : B.Mask.m;
  write_m : B.Mask.m;
  mem_m : B.Mask.m;
  po : B.t;
  po_loc : B.t;
  addr_data : B.t;  (** addr U data, the source of the rf-dependent dep_rfi part of ppo *)
  rmw : B.t;
  ppo_static : B.t;  (** preserved program order minus its rf-dependent dep_rfi part *)
  fence : B.t;  (** barrier order under [model] *)
  sync : B.t;  (** POWER sync order; empty for other models *)
  prune_core : B.t;  (** static part of the monotone pruning core *)
  ext : B.t;  (** all cross-thread pairs, for external-part masking *)
  empty_rel : B.t;  (** shared empty relation (never mutated) *)
  rmw_empty : bool;  (** atomicity is vacuous - skip its composes *)
  deps_empty : bool;  (** no addr/data edges - dep_rfi is empty *)
  fence_empty : bool;
      (** no fence edges: POWER's prop relation is empty, making
          observation vacuous and propagation just acyclic(co) *)
  rc11 : Rc11.ctx option;  (** language-tier context, [Some] iff model = Rc11 *)
}

(* Everything a [static] needs that does not depend on the model: the
   masks, program order, dependency and rmw relations, the per-kind
   fence projections and the isb/isync control restorations.  Built
   once per candidate shape; [of_base] then assembles a [static] for
   each model with cheap unions/restrictions, so checking the same
   test under all five models no longer recomputes the fence scans
   and dependency relations per model. *)
type base = {
  b_exec : Execution.t;  (** rf/co-free; kept for {!Rc11.prepare} *)
  b_n : int;
  b_tids : int array;
  b_read_m : B.Mask.m;
  b_write_m : B.Mask.m;
  b_mem_m : B.Mask.m;
  b_po : B.t;
  b_po_loc : B.t;
  b_mem_po : B.t;  (** [M]; po; [M] *)
  b_addr : B.t;
  b_data : B.t;
  b_addr_data : B.t;
  b_rmw : B.t;
  b_ctrl_w : B.t;  (** [R]; ctrl; [W] *)
  b_addr_po_w : B.t;  (** [R]; addr; po; [W] *)
  b_acq_rel : B.t;  (** ARM barrier-ordered-before acquire/release part *)
  b_f_dmb : B.t;  (** through-fence projections, one per fence kind *)
  b_f_sync : B.t;
  b_f_ishld : B.t;
  b_f_ishst : B.t;
  b_f_lwsync : B.t;
  b_f_eieio : B.t;
  b_isb_restore : B.t;  (** ctrl+isb restoration (ARM) *)
  b_isync_restore : B.t;  (** ctrl+isync restoration (POWER) *)
  b_ext : B.t;
}

let prepare_base (x : Execution.t) =
  let ev = x.Execution.events in
  let n = Array.length ev in
  let tids = Array.map (fun (e : Event.t) -> e.Event.tid) ev in
  let read_m = B.Mask.of_pred n (fun i -> Event.is_read ev.(i)) in
  let write_m = B.Mask.of_pred n (fun i -> Event.is_write ev.(i)) in
  let mem_m = B.Mask.of_pred n (fun i -> Event.is_read ev.(i) || Event.is_write ev.(i)) in
  let acq_m = B.Mask.of_pred n (fun i -> Event.is_acquire ev.(i)) in
  let rel_m = B.Mask.of_pred n (fun i -> Event.is_release ev.(i)) in
  let po = x.Execution.po in
  let po_loc = B.filter (fun a b -> Event.same_loc ev.(a) ev.(b)) po in
  let addr = x.Execution.addr in
  let data = x.Execution.data in
  let ctrl = x.Execution.ctrl in
  let rmw = x.Execution.rmw in
  let addr_data = B.union addr data in
  let fence_ids kindp =
    List.filter (fun i -> Event.is_fence ev.(i) && kindp ev.(i)) (List.init n Fun.id)
  in
  (* [M]; po; [F kind]; po; [M] *)
  let through_fence kindp =
    let acc = B.create n in
    List.iter
      (fun f ->
        let pre = B.Mask.of_pred n (fun a -> B.Mask.mem mem_m a && B.mem po a f) in
        let post = B.Mask.of_pred n (fun b -> B.Mask.mem mem_m b && B.mem po f b) in
        B.union_into ~into:acc (B.cross pre post))
      (fence_ids kindp);
    acc
  in
  (* Reads with a ctrl edge into an isb/isync order everything
     po-after the fence. *)
  let ctrl_isync kinds =
    let acc = B.create n in
    List.iter
      (fun f ->
        let sources = B.Mask.of_pred n (fun r -> B.Mask.mem read_m r && B.mem ctrl r f) in
        let targets = B.Mask.of_pred n (fun b -> B.Mask.mem mem_m b && B.mem po f b) in
        B.union_into ~into:acc (B.cross sources targets))
      (fence_ids (fun e -> List.exists (fun k -> Event.is_fence_kind k e) kinds));
    acc
  in
  let mem_po = B.restrict po ~domain:mem_m ~range:mem_m in
  let ctrl_w = B.restrict ctrl ~domain:read_m ~range:write_m in
  let addr_po_w = B.restrict (B.compose addr po) ~domain:read_m ~range:write_m in
  (* Barrier-ordered-before contributions of load-acquire /
     store-release: [A]; po; [M], [M]; po; [L], [L]; po; [A]. *)
  let acq_rel =
    B.union_all n
      [
        B.restrict po ~domain:acq_m ~range:mem_m;
        B.restrict po ~domain:mem_m ~range:rel_m;
        B.restrict po ~domain:rel_m ~range:acq_m;
      ]
  in
  {
    b_exec = x;
    b_n = n;
    b_tids = tids;
    b_read_m = read_m;
    b_write_m = write_m;
    b_mem_m = mem_m;
    b_po = po;
    b_po_loc = po_loc;
    b_mem_po = mem_po;
    b_addr = addr;
    b_data = data;
    b_addr_data = addr_data;
    b_rmw = rmw;
    b_ctrl_w = ctrl_w;
    b_addr_po_w = addr_po_w;
    b_acq_rel = acq_rel;
    b_f_dmb = through_fence (Event.is_fence_kind Instr.Dmb_ish);
    b_f_sync = through_fence (Event.is_fence_kind Instr.Sync);
    b_f_ishld = through_fence (Event.is_fence_kind Instr.Dmb_ishld);
    b_f_ishst = through_fence (Event.is_fence_kind Instr.Dmb_ishst);
    b_f_lwsync = through_fence (Event.is_fence_kind Instr.Lwsync);
    b_f_eieio = through_fence (Event.is_fence_kind Instr.Eieio);
    b_isb_restore = ctrl_isync [ Instr.Isb ];
    b_isync_restore = ctrl_isync [ Instr.Isync ];
    b_ext = Execution.external_pairs x;
  }

let of_base model (b : base) =
  let n = b.b_n in
  let fence =
    match model with
    | Sc | Rc11 ->
        (* SC: fences add nothing on top of full program order.
           RC11: fences act through sw/psc, computed in {!Rc11}. *)
        B.create n
    | Tso ->
        (* Any full fence restores the relaxed write->read pairs. *)
        B.union b.b_f_dmb b.b_f_sync
    | Arm ->
        let ld = B.restrict b.b_f_ishld ~domain:b.b_read_m ~range:b.b_mem_m in
        let st = B.restrict b.b_f_ishst ~domain:b.b_write_m ~range:b.b_write_m in
        B.union_all n [ b.b_f_dmb; ld; st ]
    | Power ->
        (* lwsync orders everything except write->read. *)
        let lw_rm = B.restrict b.b_f_lwsync ~domain:b.b_read_m ~range:b.b_mem_m in
        let lw_ww = B.restrict b.b_f_lwsync ~domain:b.b_write_m ~range:b.b_write_m in
        let eieio = B.restrict b.b_f_eieio ~domain:b.b_write_m ~range:b.b_write_m in
        B.union_all n [ b.b_f_sync; lw_rm; lw_ww; eieio ]
  in
  let sync = match model with Power -> b.b_f_sync | _ -> B.create n in
  let ppo_static =
    match model with
    | Sc | Rc11 -> b.b_mem_po
    | Tso ->
        (* Drop write->read pairs: stores may be delayed in the store
           buffer past later reads. *)
        B.filter
          (fun a b' -> not (B.Mask.mem b.b_write_m a && B.Mask.mem b.b_read_m b'))
          b.b_mem_po
    | Arm ->
        B.union_all n
          [ b.b_addr; b.b_data; b.b_ctrl_w; b.b_addr_po_w; b.b_isb_restore; b.b_acq_rel ]
    | Power ->
        B.union_all n
          [ b.b_addr; b.b_data; b.b_ctrl_w; b.b_addr_po_w; b.b_isync_restore ]
  in
  let prune_core =
    match model with
    | Sc | Rc11 -> b.b_po
    | Tso | Arm | Power -> B.union ppo_static fence
  in
  {
    model;
    n;
    tids = b.b_tids;
    read_m = b.b_read_m;
    write_m = b.b_write_m;
    mem_m = b.b_mem_m;
    po = b.b_po;
    po_loc = b.b_po_loc;
    addr_data = b.b_addr_data;
    rmw = b.b_rmw;
    ppo_static;
    fence;
    sync;
    prune_core;
    ext = b.b_ext;
    empty_rel = B.create n;
    rmw_empty = B.is_empty b.b_rmw;
    deps_empty = B.is_empty b.b_addr_data;
    fence_empty = B.is_empty fence;
    rc11 = (if model = Rc11 then Some (Rc11.prepare b.b_exec) else None);
  }

let prepare model (x : Execution.t) = of_base model (prepare_base x)

(* ------------------------------------------------------------------ *)
(* Per-candidate (rf, co) checks.                                      *)
(* ------------------------------------------------------------------ *)

let external_part st r = B.inter st.ext r

let dep_rfi_of st ~rf ~rfe =
  if st.deps_empty then st.empty_rel else B.compose st.addr_data (B.diff rf rfe)

(* The model's axioms as named thunks over a shared lazy environment:
   [violations_static] evaluates all of them to report every broken
   axiom, while [consistent_static] - the per-candidate hot path -
   stops at the first failure and never forces what it does not
   reach (POWER's closures in particular). *)
let axiom_checks st ~rf ~co =
  let n = st.n in
  let fr = lazy (Execution.fr_of ~rf ~co) in
  let com = lazy (B.union_all n [ rf; co; Lazy.force fr ]) in
  let rfe = lazy (external_part st rf) in
  let fre = lazy (external_part st (Lazy.force fr)) in
  let coe = lazy (external_part st co) in
  (* Read-modify-write atomicity (common to every model): no external
     write may be coherence-ordered between the exclusive read's source
     and the paired exclusive write: empty (rmw & (fre; coe)). *)
  let atomicity () =
    st.rmw_empty
    || B.is_empty (B.inter st.rmw (B.compose (Lazy.force fre) (Lazy.force coe)))
  in
  ("atomicity", atomicity)
  ::
  (match st.model with
  | Sc -> [ ("sc", fun () -> B.is_acyclic (B.union st.po (Lazy.force com))) ]
  | Rc11 -> Rc11.checks (Option.get st.rc11) ~rf ~co
  | Tso ->
      [
        ( "sc-per-location",
          fun () -> B.is_acyclic (B.union st.po_loc (Lazy.force com)) );
        ( "tso-global-happens-before",
          fun () ->
            B.is_acyclic
              (B.union_all n [ st.ppo_static; st.fence; Lazy.force rfe; co; Lazy.force fr ])
        );
      ]
  | Arm ->
      [
        ("internal", fun () -> B.is_acyclic (B.union st.po_loc (Lazy.force com)));
        (* The ARMv8 ordered-before relation: external observations,
           dependency-ordered-before, and barrier-ordered-before. *)
        ( "external",
          fun () ->
            let rfe = Lazy.force rfe in
            B.is_acyclic
              (B.union_all n
                 [
                   rfe;
                   Lazy.force fre;
                   Lazy.force coe;
                   st.ppo_static;
                   dep_rfi_of st ~rf ~rfe;
                   st.fence;
                 ]) );
      ]
  | Power ->
      let hb =
        lazy
          (let rfe = Lazy.force rfe in
           B.union_all n [ st.ppo_static; dep_rfi_of st ~rf ~rfe; st.fence; rfe ])
      in
      let prop_parts =
        lazy
          (let hb_star = B.reflexive_transitive_closure (Lazy.force hb) in
           let prop_base =
             B.compose (B.union st.fence (B.compose (Lazy.force rfe) st.fence)) hb_star
           in
           let com_star = B.reflexive_transitive_closure (Lazy.force com) in
           let prop_base_star = B.reflexive_transitive_closure prop_base in
           let prop =
             B.union
               (B.restrict prop_base ~domain:st.write_m ~range:st.write_m)
               (B.compose com_star (B.compose prop_base_star (B.compose st.sync hb_star)))
           in
           (prop, hb_star))
      in
      [
        ( "sc-per-location",
          fun () -> B.is_acyclic (B.union st.po_loc (Lazy.force com)) );
        ("no-thin-air", fun () -> B.is_acyclic (Lazy.force hb));
        (* With no fence edges prop is empty ((fence U rfe;fence);hb^*
           composes to nothing and sync is a subset of fence), so
           observation is vacuous and propagation reduces to
           acyclic(co) - skip the closures entirely. *)
        ( "observation",
          fun () ->
            st.fence_empty
            ||
            let prop, hb_star = Lazy.force prop_parts in
            B.is_irreflexive (B.compose (Lazy.force fre) (B.compose prop hb_star)) );
        ( "propagation",
          fun () ->
            if st.fence_empty then B.is_acyclic co
            else
              let prop, _ = Lazy.force prop_parts in
              B.is_acyclic (B.union co prop) );
      ])

let violations_static st ~rf ~co =
  List.filter_map
    (fun (name, ok) -> if ok () then None else Some name)
    (axiom_checks st ~rf ~co)

let consistent_static st ~rf ~co =
  List.for_all (fun (_, ok) -> ok ()) (axiom_checks st ~rf ~co)

(* On a COMPLETE candidate the pruning checks below coincide exactly
   with the model's axioms for SC, TSO and ARM (same unions, same
   acyclicity tests), so a leaf whose last [prune_viable] passed needs
   no further work there.  POWER's core covers atomicity,
   sc-per-location and no-thin-air; observation and propagation remain
   to be checked.  The golden tests against the reference enumerator
   guard this correspondence - update both sides together. *)
let residual_axioms = function
  | Sc | Tso | Arm -> []
  | Power -> [ "observation"; "propagation" ]
  | Rc11 ->
      (* The monotone core covers atomicity, sc-per-location and
         po U rf acyclicity; coherence's sw part and psc remain. *)
      [ "coherence"; "sc" ]

let residual_consistent st ~rf ~co =
  match residual_axioms st.model with
  | [] -> true
  | names ->
      List.for_all
        (fun (name, ok) -> (not (List.mem name names)) || ok ())
        (axiom_checks st ~rf ~co)

(* Sound pruning for partial rf/co assignments: every relation below
   grows monotonically as rf and co edges are added (po, deps and
   fences are fixed; fr = rf^-1;co, and compositions/unions of
   monotone relations are monotone), so a cycle or atomicity
   violation found now persists in every completion.  Only necessary
   conditions are checked - complete candidates still get the full
   [consistent_static] verdict (POWER's observation/propagation
   axioms involve closures not worth recomputing per search node). *)
(* Whether [prune_viable] can ever return false for this context.
   rf U co U fr - and any subset of it - decomposes per location into
   edges that strictly increase a write's co position (reads sit just
   after their source), so it is acyclic on its own; a cycle or an
   atomicity violation needs static edges to close it.  When rmw,
   po_loc and the model's static core are all empty the screen is a
   provable no-op and the search can skip it wholesale. *)
let prune_possible st =
  (not st.rmw_empty)
  || (not (B.is_empty st.po_loc))
  ||
  match st.model with
  | Sc | Rc11 -> not (B.is_empty st.po)
  | Tso | Arm | Power -> not (B.is_empty st.prune_core && st.deps_empty)

let prune_viable st ~rf ~co =
  let n = st.n in
  let fr = Execution.fr_of ~rf ~co in
  (st.rmw_empty
  ||
  let fre = external_part st fr in
  let coe = external_part st co in
  B.is_empty (B.inter st.rmw (B.compose fre coe)))
  &&
  match st.model with
  | Sc -> B.is_acyclic (B.union_all n [ st.prune_core; rf; co; fr ])
  | Rc11 ->
      (* Sound necessary conditions, all monotone in rf/co: coherence
         implies SC-per-location (hb contains po, eco contains the
         com edges), and no-thin-air is exactly acyclic(po U rf). *)
      B.is_acyclic (B.union_all n [ st.po_loc; rf; co; fr ])
      && B.is_acyclic (B.union st.po rf)
  | Tso ->
      B.is_acyclic (B.union_all n [ st.po_loc; rf; co; fr ])
      && B.is_acyclic (B.union_all n [ st.prune_core; external_part st rf; co; fr ])
  | Arm ->
      let rfe = external_part st rf in
      B.is_acyclic (B.union_all n [ st.po_loc; rf; co; fr ])
      && B.is_acyclic
           (B.union_all n
              [
                st.prune_core;
                dep_rfi_of st ~rf ~rfe;
                rfe;
                external_part st co;
                external_part st fr;
              ])
  | Power ->
      let rfe = external_part st rf in
      B.is_acyclic (B.union_all n [ st.po_loc; rf; co; fr ])
      && B.is_acyclic (B.union_all n [ st.prune_core; dep_rfi_of st ~rf ~rfe; rfe ])

(* ------------------------------------------------------------------ *)
(* Whole-execution checks: one-off [prepare], then the static API.     *)
(* ------------------------------------------------------------------ *)

let violations model (x : Execution.t) =
  violations_static (prepare model x) ~rf:x.Execution.rf ~co:x.Execution.co

let consistent model (x : Execution.t) =
  consistent_static (prepare model x) ~rf:x.Execution.rf ~co:x.Execution.co
