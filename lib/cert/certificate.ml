open Wmm_isa

(* Proof-carrying verdicts, version 2.

   A certificate is self-contained: program, condition and claim ride
   together, so {!Checker.check} revalidates it from the file alone,
   with zero exploration and no access to the fast engines.

   - [Allowed]: one witness execution (canonical events, rf edges, co
     chains) plus the final state it claims; the checker replays the
     threads, re-derives the dependency relations, re-checks the
     model's axioms and recomputes the final state.
   - [Forbidden]: the number of candidate executions, and nothing
     else; the checker recounts the rf/co candidate space from the
     program alone, so a wrong count is detected, then walks every
     candidate itself and verifies each is either inconsistent or
     misses the condition.
   - [Minimal]: a fence placement, a forbidden body for the fully
     fenced program, and one allowed witness per single-site removal
     refuting every cheaper placement.

   The serialized form is line/token oriented (see {!Trace}).  Size is
   the program's and the witnesses', not the candidate space's; the
   checker bounds its own work (see DESIGN.md §17). *)

let version = 2

type condition = {
  c_regs : ((int * Instr.reg) * Instr.value) list;
  c_mem : (Instr.loc * Instr.value) list;
}

type witness = {
  w_events : Trace.event list;
  w_rf : (int * int) list;  (** (write id, read id) *)
  w_co : (Instr.loc * int list) list;  (** per-location chains, init first *)
  w_regs : ((int * Instr.reg) * Instr.value) list;
  w_mem : (Instr.loc * Instr.value) list;
}

type forbidden_body = { f_count : int }

type site = { s_tid : int; s_at : int; s_barrier : Instr.barrier }

type minimality = {
  m_sites : site list;
  m_fenced : forbidden_body;
  m_refutations : (int * witness) list;
      (** site index dropped from [m_sites] -> allowed witness for the
          program fenced with the remaining sites *)
}

type claim =
  | Allowed of witness
  | Forbidden of forbidden_body
  | Minimal of minimality

type t = {
  model : Axioms.model;
  program : Program.t;
  cond : condition;
  claim : claim;
}

let claim_name = function
  | Allowed _ -> "allowed"
  | Forbidden _ -> "forbidden"
  | Minimal _ -> "minimal"

(* ------------------------------------------------------------------ *)
(* Serialization.                                                      *)
(* ------------------------------------------------------------------ *)

(* One buffer for the whole certificate (see {!Trace.add_int}). *)
let to_string t =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b and chr = Buffer.add_char b and int = Trace.add_int b in
  let line s =
    str s;
    chr '\n'
  in
  (* [sep]-separated items. *)
  let items ~sep add = function
    | [] -> ()
    | x :: rest ->
        add x;
        List.iter
          (fun y ->
            chr sep;
            add y)
          rest
  in
  let pair (x, y) =
    int x;
    chr ',';
    int y
  in
  let chain (l, ids) =
    int l;
    chr ':';
    items ~sep:',' int ids
  in
  let event e =
    Trace.add_event b e;
    chr '\n'
  in
  let witness w =
    List.iter event w.w_events;
    str "rf ";
    items ~sep:' ' pair w.w_rf;
    str "\nco ";
    items ~sep:' ' chain w.w_co;
    str "\nregs ";
    items ~sep:' '
      (fun ((tid, r), v) ->
        int tid;
        chr ',';
        pair (r, v))
      w.w_regs;
    str "\nmem ";
    items ~sep:' ' pair w.w_mem;
    chr '\n'
  in
  let forbidden f =
    str "count ";
    int f.f_count;
    chr '\n'
  in
  str "wmmcert ";
  int version;
  str "\nmodel ";
  line (Axioms.model_name t.model);
  Trace.add_program b t.program;
  List.iter
    (fun ((tid, r), v) ->
      str "cond-reg ";
      int tid;
      chr ' ';
      int r;
      chr ' ';
      int v;
      chr '\n')
    t.cond.c_regs;
  List.iter
    (fun (l, v) ->
      str "cond-mem ";
      int l;
      chr ' ';
      int v;
      chr '\n')
    t.cond.c_mem;
  (match t.claim with
  | Allowed w ->
      line "claim allowed";
      witness w;
      line "endwitness"
  | Forbidden f ->
      line "claim forbidden";
      forbidden f
  | Minimal m ->
      line "claim minimal";
      List.iter
        (fun s ->
          str "site ";
          int s.s_tid;
          chr ' ';
          int s.s_at;
          chr ' ';
          line (Trace.barrier_token s.s_barrier))
        m.m_sites;
      line "fenced";
      forbidden m.m_fenced;
      line "endfenced";
      List.iter
        (fun (idx, w) ->
          str "refute ";
          int idx;
          chr '\n';
          witness w;
          line "endrefute")
        m.m_refutations);
  line "end";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)
(* ------------------------------------------------------------------ *)

open Trace

let split_pairs s =
  if String.trim s = "" then []
  else
    List.map
      (fun tok ->
        match String.split_on_char ',' tok with
        | [ a; b ] -> (int_of a, int_of b)
        | _ -> fail "bad pair %S" tok)
      (List.filter (( <> ) "") (String.split_on_char ' ' s))

let split_triples s =
  if String.trim s = "" then []
  else
    List.map
      (fun tok ->
        match String.split_on_char ',' tok with
        | [ a; b; c ] -> ((int_of a, int_of b), int_of c)
        | _ -> fail "bad triple %S" tok)
      (List.filter (( <> ) "") (String.split_on_char ' ' s))

let split_chains s =
  if String.trim s = "" then []
  else
    List.map
      (fun tok ->
        match String.split_on_char ':' tok with
        | [ l; ids ] ->
            ( int_of l,
              List.map int_of (List.filter (( <> ) "") (String.split_on_char ',' ids)) )
        | _ -> fail "bad chain %S" tok)
      (List.filter (( <> ) "") (String.split_on_char ' ' s))

let prefixed prefix line =
  let pl = String.length prefix in
  if String.length line >= pl && String.sub line 0 pl = prefix then
    Some (String.sub line pl (String.length line - pl))
  else None

(* Events, then rf / co / regs / mem in that order. *)
let parse_witness lines =
  let rec events acc = function
    | line :: rest as all -> (
        match prefixed "e " line with
        | Some toks ->
            events
              (event_of_tokens (List.filter (( <> ) "") (String.split_on_char ' ' toks)) :: acc)
              rest
        | None -> (List.rev acc, all))
    | [] -> (List.rev acc, [])
  in
  let w_events, rest = events [] lines in
  match rest with
  | rf_l :: co_l :: regs_l :: mem_l :: rest -> (
      match
        (prefixed "rf" rf_l, prefixed "co" co_l, prefixed "regs" regs_l, prefixed "mem" mem_l)
      with
      | Some rf, Some co, Some regs, Some mem ->
          ( {
              w_events;
              w_rf = split_pairs rf;
              w_co = split_chains co;
              w_regs = split_triples regs;
              w_mem = split_pairs mem;
            },
            rest )
      | _ -> fail "malformed witness section")
  | _ -> fail "truncated witness section"

let parse_forbidden = function
  | count_l :: rest -> (
      match prefixed "count " count_l with
      | Some n -> ({ f_count = int_of (String.trim n) }, rest)
      | None -> fail "expected count line")
  | [] -> fail "truncated forbidden section"

let of_lines lines =
  let lines = List.filter (fun l -> String.trim l <> "") (List.map String.trim lines) in
  match lines with
  | header :: rest -> (
      (match String.split_on_char ' ' header with
      | [ "wmmcert"; v ] ->
          if int_of v <> version then
            fail "unsupported certificate version %s (checker speaks %d)" v version
      | _ -> fail "not a certificate: bad header %S" header);
      match rest with
      | model_l :: rest -> (
          let model =
            match prefixed "model " model_l with
            | Some name -> (
                match Axioms.model_of_name (String.trim name) with
                | Some m -> m
                | None -> fail "unknown model %S" name)
            | None -> fail "expected model line"
          in
          let program, rest = program_of_lines rest in
          let rec conds regs mem = function
            | line :: rest as all -> (
                match (prefixed "cond-reg " line, prefixed "cond-mem " line) with
                | Some s, _ -> (
                    match List.filter (( <> ) "") (String.split_on_char ' ' s) with
                    | [ t; r; v ] -> conds (((int_of t, int_of r), int_of v) :: regs) mem rest
                    | _ -> fail "bad cond-reg line")
                | _, Some s -> (
                    match List.filter (( <> ) "") (String.split_on_char ' ' s) with
                    | [ l; v ] -> conds regs ((int_of l, int_of v) :: mem) rest
                    | _ -> fail "bad cond-mem line")
                | None, None -> (List.rev regs, List.rev mem, all))
            | [] -> (List.rev regs, List.rev mem, [])
          in
          let c_regs, c_mem, rest = conds [] [] rest in
          let cond = { c_regs; c_mem } in
          let claim, rest =
            match rest with
            | "claim allowed" :: rest -> (
                let w, rest = parse_witness rest in
                match rest with
                | "endwitness" :: rest -> (Allowed w, rest)
                | _ -> fail "missing endwitness")
            | "claim forbidden" :: rest ->
                let f, rest = parse_forbidden rest in
                (Forbidden f, rest)
            | "claim minimal" :: rest ->
                let rec sites acc = function
                  | line :: rest as all -> (
                      match prefixed "site " line with
                      | Some s -> (
                          match List.filter (( <> ) "") (String.split_on_char ' ' s) with
                          | [ t; at; b ] ->
                              sites
                                ({ s_tid = int_of t; s_at = int_of at; s_barrier = barrier_of b }
                                :: acc)
                                rest
                          | _ -> fail "bad site line")
                      | None -> (List.rev acc, all))
                  | [] -> (List.rev acc, [])
                in
                let m_sites, rest = sites [] rest in
                let m_fenced, rest =
                  match rest with
                  | "fenced" :: rest -> (
                      let f, rest = parse_forbidden rest in
                      match rest with
                      | "endfenced" :: rest -> (f, rest)
                      | _ -> fail "missing endfenced")
                  | _ -> fail "expected fenced section"
                in
                let rec refutes acc = function
                  | line :: rest as all -> (
                      match prefixed "refute " line with
                      | Some idx -> (
                          let w, rest = parse_witness rest in
                          match rest with
                          | "endrefute" :: rest ->
                              refutes ((int_of (String.trim idx), w) :: acc) rest
                          | _ -> fail "missing endrefute")
                      | None -> (List.rev acc, all))
                  | [] -> (List.rev acc, [])
                in
                let m_refutations, rest = refutes [] rest in
                (Minimal { m_sites; m_fenced; m_refutations }, rest)
            | l :: _ -> fail "expected a claim, got %S" l
            | [] -> fail "missing claim"
          in
          match rest with
          | [ "end" ] -> { model; program; cond; claim }
          | l :: _ -> fail "trailing content %S" l
          | [] -> fail "missing end marker")
      | [] -> fail "truncated certificate")
  | [] -> fail "empty certificate"

let of_string s =
  match of_lines (String.split_on_char '\n' s) with
  | t -> Ok t
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error msg
