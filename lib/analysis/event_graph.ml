open Wmm_isa

type access = {
  node : int;
  tid : int;
  index : int;
  is_write : bool;
  loc : Instr.loc option;
  order : Instr.order;
  exclusive : bool;
  value : Instr.value option;
}

type po_edge = {
  src : access;
  dst : access;
  fences : Instr.barrier list;
  addr_dep : bool;
  data_dep : bool;
  ctrl_dep : bool;
  ctrl_pipeline : Instr.barrier list;
}

type t = { program : Program.t; accesses : access list; edges : po_edge list }

module IS = Set.Make (Int)
module RM = Map.Make (Int)

(* Abstract register contents: a known constant, or an unknown value
   carrying the set of read nodes it (transitively) depends on. *)
type aval = Known of int | Unknown

type cell = { v : aval; deps : IS.t }

let const v = { v = Known v; deps = IS.empty }

let eval regs = function
  | Instr.Imm v -> const v
  | Instr.Reg r -> (
      match RM.find_opt r regs with Some c -> c | None -> const 0)

let eval_op regs op a b =
  let ca = eval regs a and cb = eval regs b in
  let deps = IS.union ca.deps cb.deps in
  match (ca.v, cb.v) with
  | Known x, Known y -> { v = Known (Instr.eval_binop op x y); deps }
  | _ -> (
      (* xor r,r and sub r,r are the artificial-dependency idiom: the
         value is statically zero even though the register is not. *)
      match (op, a, b) with
      | (Instr.Xor | Instr.Sub), Instr.Reg ra, Instr.Reg rb when ra = rb ->
          { v = Known 0; deps }
      | _ -> { v = Unknown; deps })

(* Per-access static dependency annotations, kept private to the
   extractor; the public po_edge carries the per-pair booleans. *)
type raw = {
  acc : access;
  addr_deps : IS.t;  (** Read nodes the address depends on. *)
  data_deps : IS.t;  (** Read nodes the stored value depends on. *)
  ctrl_deps : IS.t;  (** Read nodes a preceding branch depends on. *)
}

type fence_at = { f_index : int; f_barrier : Instr.barrier; f_ctrl : IS.t }

let extract_thread ~next_node tid (thread : Instr.t array) =
  let regs = ref RM.empty in
  let ctrl = ref IS.empty in
  let raws = ref [] and fences = ref [] in
  let set_reg r c = regs := RM.add r c !regs in
  let fresh () =
    let n = !next_node in
    incr next_node;
    n
  in
  Array.iteri
    (fun index instr ->
      match instr with
      | Instr.Load { dst; addr; order } | Instr.Load_exclusive { dst; addr; order } ->
          let a = eval !regs addr in
          let node = fresh () in
          let exclusive = match instr with Instr.Load_exclusive _ -> true | _ -> false in
          let loc = match a.v with Known l -> Some l | Unknown -> None in
          let acc =
            { node; tid; index; is_write = false; loc; order; exclusive; value = None }
          in
          raws :=
            { acc; addr_deps = a.deps; data_deps = IS.empty; ctrl_deps = !ctrl } :: !raws;
          set_reg dst { v = Unknown; deps = IS.singleton node }
      | Instr.Store { src; addr; order } ->
          let a = eval !regs addr and s = eval !regs src in
          let node = fresh () in
          let loc = match a.v with Known l -> Some l | Unknown -> None in
          let acc =
            {
              node; tid; index; is_write = true; loc; order; exclusive = false;
              value = (match s.v with Known v -> Some v | Unknown -> None);
            }
          in
          raws := { acc; addr_deps = a.deps; data_deps = s.deps; ctrl_deps = !ctrl } :: !raws
      | Instr.Store_exclusive { status; src; addr; order } ->
          let a = eval !regs addr and s = eval !regs src in
          let node = fresh () in
          let loc = match a.v with Known l -> Some l | Unknown -> None in
          let acc =
            {
              node; tid; index; is_write = true; loc; order; exclusive = true;
              value = (match s.v with Known v -> Some v | Unknown -> None);
            }
          in
          raws := { acc; addr_deps = a.deps; data_deps = s.deps; ctrl_deps = !ctrl } :: !raws;
          (* Success path: status register is statically 0. *)
          set_reg status (const 0)
      | Instr.Barrier b ->
          fences := { f_index = index; f_barrier = b; f_ctrl = !ctrl } :: !fences
      | Instr.Mov { dst; src } -> set_reg dst (eval !regs src)
      | Instr.Op { op; dst; a; b } -> set_reg dst (eval_op !regs op a b)
      | Instr.Cbnz { src; _ } | Instr.Cbz { src; _ } ->
          (* Fall-through approximation: record the control dependency
             and continue linearly (litmus branches are [+0] idioms). *)
          let c = eval !regs (Instr.Reg src) in
          ctrl := IS.union !ctrl c.deps
      | Instr.Nop -> ())
    thread;
  (List.rev !raws, List.rev !fences)

let pipeline_barrier = function Instr.Isb | Instr.Isync -> true | _ -> false

let edges_of_thread raws fences =
  let rec pairs acc = function
    | [] -> acc
    | r :: rest ->
        let acc =
          List.fold_left
            (fun acc r' ->
              let between f = f.f_index > r.acc.index && f.f_index < r'.acc.index in
              let fs = List.filter between fences in
              let dep set = IS.mem r.acc.node set in
              {
                src = r.acc;
                dst = r'.acc;
                fences = List.map (fun f -> f.f_barrier) fs;
                addr_dep = dep r'.addr_deps;
                data_dep = dep r'.data_deps;
                ctrl_dep = dep r'.ctrl_deps;
                ctrl_pipeline =
                  List.filter_map
                    (fun f ->
                      if pipeline_barrier f.f_barrier && IS.mem r.acc.node f.f_ctrl then
                        Some f.f_barrier
                      else None)
                    fs;
              }
              :: acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] raws

let extract (program : Program.t) =
  let next_node = ref 0 in
  let accesses = ref [] and edges = ref [] in
  Array.iteri
    (fun tid thread ->
      let raws, fences = extract_thread ~next_node tid thread in
      accesses := !accesses @ List.map (fun r -> r.acc) raws;
      edges := !edges @ List.rev (edges_of_thread raws fences))
    program.Program.threads;
  { program; accesses = !accesses; edges = !edges }

let same_loc a b =
  match (a.loc, b.loc) with Some x, Some y -> x = y | _ -> false

let conflict a b =
  a.tid <> b.tid
  && (a.is_write || b.is_write)
  && (match (a.loc, b.loc) with Some x, Some y -> x = y | _ -> true)

let edge_kind e =
  match (e.src.is_write, e.dst.is_write) with
  | false, false -> Wmm_platform.Barrier.Load_load
  | false, true -> Wmm_platform.Barrier.Load_store
  | true, false -> Wmm_platform.Barrier.Store_load
  | true, true -> Wmm_platform.Barrier.Store_store
