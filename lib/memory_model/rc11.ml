open Wmm_isa
module B = Bitrel

(* The RC11 axioms (Lahav, Vafeiadis et al., "Repairing sequential
   consistency in C/C++11") over the dense bitset relations used by
   the exploration core.  Every access is treated as atomic: [Plain]
   orders are relaxed, there are no non-atomics and hence no data
   races to report.  Hardware barriers appearing in a language-level
   program are given their natural C11 strength (dmb/sync ~ sc fence,
   lwsync ~ acq_rel, dmb.ld ~ acquire, dmb.st/eieio ~ release,
   isb/isync ~ nothing) so lifted hardware tests remain meaningful. *)

type mode = Rlx | Acq | Rel | Acq_rel_m | Sc_m

let read_mode = function
  | Instr.Plain | Instr.Release -> Rlx
  | Instr.Acquire | Instr.Acq_rel -> Acq
  | Instr.Sc -> Sc_m

let write_mode = function
  | Instr.Plain | Instr.Acquire -> Rlx
  | Instr.Release | Instr.Acq_rel -> Rel
  | Instr.Sc -> Sc_m

let fence_mode = function
  | Instr.Fence_acq | Instr.Dmb_ishld -> Acq
  | Instr.Fence_rel | Instr.Dmb_ishst | Instr.Eieio -> Rel
  | Instr.Fence_acq_rel | Instr.Lwsync -> Acq_rel_m
  | Instr.Fence_sc | Instr.Dmb_ish | Instr.Sync -> Sc_m
  | Instr.Isb | Instr.Isync -> Rlx

let at_least_acq = function Acq | Acq_rel_m | Sc_m -> true | Rlx | Rel -> false
let at_least_rel = function Rel | Acq_rel_m | Sc_m -> true | Rlx | Acq -> false

let event_mode (e : Event.t) =
  match e.Event.action with
  | Event.Read { order; _ } -> read_mode order
  | Event.Write { order; _ } -> write_mode order
  | Event.Fence b -> fence_mode b

type ctx = {
  n : int;
  po : B.t;
  po_loc : B.t;
  po_nloc : B.t;
  rmw : B.t;
  ws_base : B.t;  (** [W]; (po cap =loc)?; [W] — the rf-free prefix of rs *)
  pre_rel : B.t;  (** [E^>=rel on W] U [F^>=rel]; po; [W] *)
  post_acq : B.t;  (** [R^>=acq] U [R]; po; [F^>=acq] *)
  sc_id : B.t;  (** identity on sc-mode events *)
  sc_fence_m : B.Mask.m;
  full_m : B.Mask.m;
  same_loc : int -> int -> bool;
}

let id_on n m =
  let r = B.create n in
  B.Mask.iter (fun i -> B.add r i i) m;
  r

let prepare (x : Execution.t) =
  let ev = x.Execution.events in
  let n = Array.length ev in
  let read_m = B.Mask.of_pred n (fun i -> Event.is_read ev.(i)) in
  let write_m = B.Mask.of_pred n (fun i -> Event.is_write ev.(i)) in
  let full_m = B.Mask.of_pred n (fun _ -> true) in
  let po = x.Execution.po in
  let po_loc = B.filter (fun a b -> Event.same_loc ev.(a) ev.(b)) po in
  let po_nloc = B.diff po po_loc in
  let rmw = x.Execution.rmw in
  let modes = Array.map event_mode ev in
  let fence_m = B.Mask.of_pred n (fun i -> Event.is_fence ev.(i)) in
  let rel_write_m =
    B.Mask.of_pred n (fun i -> B.Mask.mem write_m i && at_least_rel modes.(i))
  in
  let rel_fence_m =
    B.Mask.of_pred n (fun i -> B.Mask.mem fence_m i && at_least_rel modes.(i))
  in
  let acq_read_m =
    B.Mask.of_pred n (fun i -> B.Mask.mem read_m i && at_least_acq modes.(i))
  in
  let acq_fence_m =
    B.Mask.of_pred n (fun i -> B.Mask.mem fence_m i && at_least_acq modes.(i))
  in
  let sc_m = B.Mask.of_pred n (fun i -> modes.(i) = Sc_m) in
  let sc_fence_m = B.Mask.inter sc_m fence_m in
  let ws_base =
    B.union (B.restrict po_loc ~domain:write_m ~range:write_m) (id_on n write_m)
  in
  let pre_rel =
    B.union (id_on n rel_write_m) (B.restrict po ~domain:rel_fence_m ~range:write_m)
  in
  let post_acq =
    B.union (id_on n acq_read_m) (B.restrict po ~domain:read_m ~range:acq_fence_m)
  in
  {
    n;
    po;
    po_loc;
    po_nloc;
    rmw;
    ws_base;
    pre_rel;
    post_acq;
    sc_id = id_on n sc_m;
    sc_fence_m;
    full_m;
    same_loc = (fun a b -> Event.same_loc ev.(a) ev.(b));
  }

(* rf/co-dependent derived relations, shared by the axioms below. *)
let derived ctx ~rf ~co =
  let n = ctx.n in
  (* rs = [W]; (po cap =loc)?; [W^>=rlx]; (rf; rmw)* — all writes are
     at least relaxed here. *)
  let rs = B.compose ctx.ws_base (B.reflexive_transitive_closure (B.compose rf ctx.rmw)) in
  let sw = B.compose ctx.pre_rel (B.compose rs (B.compose rf ctx.post_acq)) in
  let hb = B.transitive_closure (B.union ctx.po sw) in
  let fr = Execution.fr_of ~rf ~co in
  let eco = B.transitive_closure (B.union_all n [ rf; co; fr ]) in
  (hb, eco, fr)

let coherence_ok (hb, eco, _fr) =
  B.is_irreflexive hb && B.is_irreflexive (B.compose hb eco)

let sc_ok ctx ~co (hb, eco, fr) =
  let n = ctx.n in
  (* scb = po U po|<>loc; hb; po|<>loc U hb|=loc U mo U fr *)
  let scb =
    B.union_all n
      [
        ctx.po;
        B.compose ctx.po_nloc (B.compose hb ctx.po_nloc);
        B.filter ctx.same_loc hb;
        co;
        fr;
      ]
  in
  (* psc_base = ([E^sc] U [F^sc]; hb?); scb; ([E^sc] U hb?; [F^sc]) *)
  let pre = B.union ctx.sc_id (B.restrict hb ~domain:ctx.sc_fence_m ~range:ctx.full_m) in
  let post = B.union ctx.sc_id (B.restrict hb ~domain:ctx.full_m ~range:ctx.sc_fence_m) in
  let psc_base = B.compose pre (B.compose scb post) in
  (* psc_f = [F^sc]; (hb U hb; eco; hb); [F^sc] *)
  let psc_f =
    B.restrict
      (B.union hb (B.compose hb (B.compose eco hb)))
      ~domain:ctx.sc_fence_m ~range:ctx.sc_fence_m
  in
  B.is_acyclic (B.union psc_base psc_f)

(* The RC11 axioms as named thunks over a shared lazy environment
   (atomicity is supplied by the caller, shared across all models).
   no-thin-air is RC11's po U rf acyclicity — the load-buffering
   restriction that makes compilation to ARM/POWER need a trailing
   pseudo-dependency after relaxed loads. *)
let checks ctx ~rf ~co =
  let d = lazy (derived ctx ~rf ~co) in
  [
    ("coherence", fun () -> coherence_ok (Lazy.force d));
    ("no-thin-air", fun () -> B.is_acyclic (B.union ctx.po rf));
    ("sc", fun () -> sc_ok ctx ~co (Lazy.force d));
  ]
