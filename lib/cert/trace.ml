open Wmm_isa

(* Canonical Owens-style memory-event traces, and a line/token level
   serialization for them and for the programs they certify.

   This module (with the rest of wmm_cert) is the TRUSTED side of the
   certificate story: it depends on wmm_isa only and shares no code
   with the exploration engines in lib/memory_model or the analysis
   pipeline.  Everything here is deliberately first-order - events are
   records, relations are pair lists - so the checker stays small
   enough to audit by eye. *)

type action =
  | Read of { loc : Instr.loc; value : Instr.value; order : Instr.order }
  | Write of { loc : Instr.loc; value : Instr.value; order : Instr.order; rmw : bool }
      (** [rmw] marks the successful write half of an exclusive pair.
          Store-exclusive failures emit no event, so without the flag a
          plain store to the same location and value could masquerade
          as the exclusive write during replay. *)
  | Fence of Instr.barrier

type event = { id : int; tid : int; po : int; action : action }

let init_tid = -1

let is_read e = match e.action with Read _ -> true | _ -> false
let is_write e = match e.action with Write _ -> true | _ -> false
let is_fence e = match e.action with Fence _ -> true | _ -> false
let is_init e = e.tid = init_tid

let loc e =
  match e.action with Read { loc; _ } | Write { loc; _ } -> Some loc | Fence _ -> None

let value e =
  match e.action with
  | Read { value; _ } | Write { value; _ } -> Some value
  | Fence _ -> None

let order e =
  match e.action with
  | Read { order; _ } | Write { order; _ } -> Some order
  | Fence _ -> None

let is_rmw_write e = match e.action with Write { rmw; _ } -> rmw | _ -> false

let same_loc a b = match (loc a, loc b) with Some x, Some y -> x = y | _ -> false

let fence_kind k e = match e.action with Fence b -> b = k | _ -> false

let is_acquire e =
  match e.action with
  | Read { order = Instr.Acquire | Instr.Acq_rel | Instr.Sc; _ } -> true
  | _ -> false

let is_release e =
  match e.action with
  | Write { order = Instr.Release | Instr.Acq_rel | Instr.Sc; _ } -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Tokens.  Every serialized form below is a line of space-separated
   tokens; no token contains a space, so parsing is a split.           *)
(* ------------------------------------------------------------------ *)

let order_token = function
  | Instr.Plain -> "pln"
  | Instr.Acquire -> "acq"
  | Instr.Release -> "rel"
  | Instr.Acq_rel -> "ar"
  | Instr.Sc -> "sc"

let order_of_token = function
  | "pln" -> Some Instr.Plain
  | "acq" -> Some Instr.Acquire
  | "rel" -> Some Instr.Release
  | "ar" -> Some Instr.Acq_rel
  | "sc" -> Some Instr.Sc
  | _ -> None

let barrier_token = function
  | Instr.Dmb_ish -> "dmb.ish"
  | Instr.Dmb_ishld -> "dmb.ishld"
  | Instr.Dmb_ishst -> "dmb.ishst"
  | Instr.Isb -> "isb"
  | Instr.Sync -> "sync"
  | Instr.Lwsync -> "lwsync"
  | Instr.Isync -> "isync"
  | Instr.Eieio -> "eieio"
  | Instr.Fence_acq -> "fence.acq"
  | Instr.Fence_rel -> "fence.rel"
  | Instr.Fence_acq_rel -> "fence.acqrel"
  | Instr.Fence_sc -> "fence.sc"

let barrier_of_token = function
  | "dmb.ish" -> Some Instr.Dmb_ish
  | "dmb.ishld" -> Some Instr.Dmb_ishld
  | "dmb.ishst" -> Some Instr.Dmb_ishst
  | "isb" -> Some Instr.Isb
  | "sync" -> Some Instr.Sync
  | "lwsync" -> Some Instr.Lwsync
  | "isync" -> Some Instr.Isync
  | "eieio" -> Some Instr.Eieio
  | "fence.acq" -> Some Instr.Fence_acq
  | "fence.rel" -> Some Instr.Fence_rel
  | "fence.acqrel" -> Some Instr.Fence_acq_rel
  | "fence.sc" -> Some Instr.Fence_sc
  | _ -> None

(* Serialization writes into one buffer; integers go in digit by
   digit, as [string_of_int] prints them, without a string each. *)
let add_int b n =
  (* The digits of a non-positive [m], so [min_int] needs no case. *)
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char b '-';
    digits n
  end
  else digits (-n)

(* The event line, without its newline: [e <id> <tid> <po> <action>]. *)
let add_event b e =
  Buffer.add_string b "e ";
  add_int b e.id;
  Buffer.add_char b ' ';
  add_int b e.tid;
  Buffer.add_char b ' ';
  add_int b e.po;
  match e.action with
  | Read { loc; value; order } ->
      Buffer.add_string b " R ";
      add_int b loc;
      Buffer.add_char b ' ';
      add_int b value;
      Buffer.add_char b ' ';
      Buffer.add_string b (order_token order)
  | Write { loc; value; order; rmw } ->
      Buffer.add_string b " W ";
      add_int b loc;
      Buffer.add_char b ' ';
      add_int b value;
      Buffer.add_char b ' ';
      Buffer.add_string b (order_token order);
      Buffer.add_string b (if rmw then " x" else " -")
  | Fence k ->
      Buffer.add_string b " F ";
      Buffer.add_string b (barrier_token k)

let event_line e =
  let b = Buffer.create 32 in
  add_event b e;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing helpers.                                                    *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let int_of tok =
  match int_of_string_opt tok with Some n -> n | None -> fail "bad integer %S" tok

let order_of tok =
  match order_of_token tok with Some o -> o | None -> fail "bad order %S" tok

let barrier_of tok =
  match barrier_of_token tok with Some b -> b | None -> fail "bad barrier %S" tok

let action_of_tokens = function
  | [ "R"; l; v; o ] -> Read { loc = int_of l; value = int_of v; order = order_of o }
  | [ "W"; l; v; o; x ] ->
      let rmw =
        match x with "x" -> true | "-" -> false | _ -> fail "bad rmw flag %S" x
      in
      Write { loc = int_of l; value = int_of v; order = order_of o; rmw }
  | [ "F"; b ] -> Fence (barrier_of b)
  | toks -> fail "bad action %S" (String.concat " " toks)

let event_of_tokens = function
  | id :: tid :: po :: action ->
      { id = int_of id; tid = int_of tid; po = int_of po; action = action_of_tokens action }
  | toks -> fail "bad event %S" (String.concat " " toks)

(* ------------------------------------------------------------------ *)
(* Program serialization.  Certificates are self-contained: the
   checker revalidates a claim from the certificate file alone, so the
   program rides along in full.                                        *)
(* ------------------------------------------------------------------ *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | ' ' -> Buffer.add_string b "%20"
      | '%' -> Buffer.add_string b "%25"
      | '\n' -> Buffer.add_string b "%0a"
      | c -> Buffer.add_char b c)
    s

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match String.sub s (i + 1) 2 with
        | "20" -> Buffer.add_char b ' '
        | "25" -> Buffer.add_char b '%'
        | "0a" -> Buffer.add_char b '\n'
        | other -> fail "bad escape %%%s" other);
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let add_operand b = function
  | Instr.Imm v ->
      Buffer.add_char b 'i';
      add_int b v
  | Instr.Reg r ->
      Buffer.add_char b 'r';
      add_int b r

let operand_of tok =
  if String.length tok < 2 then fail "bad operand %S" tok
  else
    let n = int_of (String.sub tok 1 (String.length tok - 1)) in
    match tok.[0] with
    | 'i' -> Instr.Imm n
    | 'r' -> Instr.Reg n
    | _ -> fail "bad operand %S" tok

let binop_token = function
  | Instr.Add -> "add"
  | Instr.Sub -> "sub"
  | Instr.Xor -> "xor"
  | Instr.And -> "and"

let binop_of = function
  | "add" -> Instr.Add
  | "sub" -> Instr.Sub
  | "xor" -> Instr.Xor
  | "and" -> Instr.And
  | tok -> fail "bad binop %S" tok

let add_instr b instr =
  let word w = Buffer.add_string b w in
  let int n =
    Buffer.add_char b ' ';
    add_int b n
  and operand o =
    Buffer.add_char b ' ';
    add_operand b o
  and token t =
    Buffer.add_char b ' ';
    Buffer.add_string b t
  in
  match instr with
  | Instr.Load { dst; addr; order } ->
      word "ld";
      int dst;
      operand addr;
      token (order_token order)
  | Instr.Store { src; addr; order } ->
      word "st";
      operand src;
      operand addr;
      token (order_token order)
  | Instr.Load_exclusive { dst; addr; order } ->
      word "ldx";
      int dst;
      operand addr;
      token (order_token order)
  | Instr.Store_exclusive { status; src; addr; order } ->
      word "stx";
      int status;
      operand src;
      operand addr;
      token (order_token order)
  | Instr.Barrier k ->
      word "bar";
      token (barrier_token k)
  | Instr.Mov { dst; src } ->
      word "mov";
      int dst;
      operand src
  | Instr.Op { op; dst; a; b = b' } ->
      word "op";
      token (binop_token op);
      int dst;
      operand a;
      operand b'
  | Instr.Cbnz { src; offset } ->
      word "cbnz";
      int src;
      int offset
  | Instr.Cbz { src; offset } ->
      word "cbz";
      int src;
      int offset
  | Instr.Nop -> word "nop"

let instr_of_tokens = function
  | [ "ld"; d; a; o ] ->
      Instr.Load { dst = int_of d; addr = operand_of a; order = order_of o }
  | [ "st"; s; a; o ] ->
      Instr.Store { src = operand_of s; addr = operand_of a; order = order_of o }
  | [ "ldx"; d; a; o ] ->
      Instr.Load_exclusive { dst = int_of d; addr = operand_of a; order = order_of o }
  | [ "stx"; st; s; a; o ] ->
      Instr.Store_exclusive
        { status = int_of st; src = operand_of s; addr = operand_of a; order = order_of o }
  | [ "bar"; b ] -> Instr.Barrier (barrier_of b)
  | [ "mov"; d; s ] -> Instr.Mov { dst = int_of d; src = operand_of s }
  | [ "op"; op; d; a; b ] ->
      Instr.Op { op = binop_of op; dst = int_of d; a = operand_of a; b = operand_of b }
  | [ "cbnz"; s; off ] -> Instr.Cbnz { src = int_of s; offset = int_of off }
  | [ "cbz"; s; off ] -> Instr.Cbz { src = int_of s; offset = int_of off }
  | [ "nop" ] -> Instr.Nop
  | toks -> fail "bad instruction %S" (String.concat " " toks)

(* The program section, one newline-terminated line each: name,
   location names (when any), initial values, threads. *)
let add_program b (p : Program.t) =
  Buffer.add_string b "name ";
  add_escaped b p.Program.name;
  Buffer.add_char b '\n';
  if p.Program.location_names <> [||] then begin
    Buffer.add_string b "locnames";
    Array.iter
      (fun n ->
        Buffer.add_char b ' ';
        add_escaped b n)
      p.Program.location_names;
    Buffer.add_char b '\n'
  end;
  List.iter
    (fun (l, v) ->
      Buffer.add_string b "init ";
      add_int b l;
      Buffer.add_char b ' ';
      add_int b v;
      Buffer.add_char b '\n')
    p.Program.init;
  Array.iter
    (fun thread ->
      Buffer.add_string b "thread ";
      Array.iteri
        (fun i instr ->
          if i > 0 then Buffer.add_string b " | ";
          add_instr b instr)
        thread;
      Buffer.add_char b '\n')
    p.Program.threads

(* Consume program lines from [lines]; returns the program and the
   remaining lines.  The section ends at the first line that is not a
   program line. *)
let program_of_lines lines =
  let name = ref "anon" in
  let locnames = ref [||] in
  let init = ref [] in
  let threads = ref [] in
  let rec go = function
    | line :: rest -> (
        match String.split_on_char ' ' line with
        | "name" :: n -> (
            name := unescape (String.concat " " n);
            go rest)
        | "locnames" :: ns ->
            locnames := Array.of_list (List.map unescape ns);
            go rest
        | [ "init"; l; v ] ->
            init := (int_of l, int_of v) :: !init;
            go rest
        | "thread" :: toks ->
            let toks = List.filter (( <> ) "") toks in
            let instrs =
              if toks = [] then []
              else
                String.concat " " toks |> String.split_on_char '|'
                |> List.map (fun s ->
                       instr_of_tokens
                         (List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))))
            in
            threads := Array.of_list instrs :: !threads;
            go rest
        | _ -> line :: rest)
    | [] -> []
  in
  let rest = go lines in
  let p =
    Program.make ~location_names:!locnames ~init:(List.rev !init) ~name:!name
      (List.rev !threads)
  in
  (p, rest)
