type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

exception Parse_error of int * string

let fail i msg = raise (Parse_error (i, msg))

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec skip_ws s i = if i < String.length s && is_ws s.[i] then skip_ws s (i + 1) else i

let expect_char s i c =
  if i < String.length s && s.[i] = c then i + 1
  else fail i (Printf.sprintf "expected %C" c)

let parse_literal s i lit v =
  let n = String.length lit in
  if i + n <= String.length s && String.sub s i n = lit then (v, i + n)
  else fail i (Printf.sprintf "expected %s" lit)

let parse_string_body s i =
  let b = Buffer.create 16 in
  let rec go i =
    if i >= String.length s then fail i "unterminated string"
    else
      match s.[i] with
      | '"' -> (Buffer.contents b, i + 1)
      | '\\' ->
          if i + 1 >= String.length s then fail i "bad escape"
          else begin
            (match s.[i + 1] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if i + 5 >= String.length s then fail i "bad \\u escape";
                let code =
                  try int_of_string ("0x" ^ String.sub s (i + 2) 4)
                  with _ -> fail i "bad \\u escape"
                in
                (* Encode the code point as UTF-8; surrogate pairs are
                   passed through as two 3-byte sequences, which is
                   lossy for astral-plane text but the protocol never
                   carries any. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail i (Printf.sprintf "unknown escape \\%c" c));
            go (if s.[i + 1] = 'u' then i + 6 else i + 2)
          end
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go i

let parse_number s i =
  let j = ref i in
  let n = String.length s in
  let advance_while p =
    while !j < n && p s.[!j] do
      incr j
    done
  in
  if !j < n && (s.[!j] = '-' || s.[!j] = '+') then incr j;
  advance_while (function '0' .. '9' -> true | _ -> false);
  if !j < n && s.[!j] = '.' then begin
    incr j;
    advance_while (function '0' .. '9' -> true | _ -> false)
  end;
  if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
    incr j;
    if !j < n && (s.[!j] = '-' || s.[!j] = '+') then incr j;
    advance_while (function '0' .. '9' -> true | _ -> false)
  end;
  match float_of_string_opt (String.sub s i (!j - i)) with
  | Some f -> (Num f, !j)
  | None -> fail i "malformed number"

let rec parse_value s i =
  let i = skip_ws s i in
  if i >= String.length s then fail i "unexpected end of input"
  else
    match s.[i] with
    | 'n' -> parse_literal s i "null" Null
    | 't' -> parse_literal s i "true" (Bool true)
    | 'f' -> parse_literal s i "false" (Bool false)
    | '"' ->
        let str, i = parse_string_body s (i + 1) in
        (Str str, i)
    | '{' -> parse_obj s (skip_ws s (i + 1)) []
    | '[' -> parse_arr s (skip_ws s (i + 1)) []
    | '-' | '0' .. '9' -> parse_number s i
    | c -> fail i (Printf.sprintf "unexpected %C" c)

and parse_obj s i acc =
  if i < String.length s && s.[i] = '}' then (Obj (List.rev acc), i + 1)
  else
    let i = expect_char s (skip_ws s i) '"' in
    let name, i = parse_string_body s i in
    let i = expect_char s (skip_ws s i) ':' in
    let v, i = parse_value s i in
    let i = skip_ws s i in
    if i < String.length s && s.[i] = ',' then
      parse_obj s (skip_ws s (i + 1)) ((name, v) :: acc)
    else
      let i = expect_char s i '}' in
      (Obj (List.rev ((name, v) :: acc)), i)

and parse_arr s i acc =
  if i < String.length s && s.[i] = ']' then (Arr (List.rev acc), i + 1)
  else
    let v, i = parse_value s i in
    let i = skip_ws s i in
    if i < String.length s && s.[i] = ',' then parse_arr s (skip_ws s (i + 1)) (v :: acc)
    else
      let i = expect_char s i ']' in
      (Arr (List.rev (v :: acc)), i)

let parse s =
  match
    let v, i = parse_value s 0 in
    let i = skip_ws s i in
    if i <> String.length s then fail i "trailing garbage" else v
  with
  | v -> Ok v
  | exception Parse_error (i, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" i msg)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Raw s -> Buffer.add_string b s
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.0f" f)
        else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%g" f)
        else Buffer.add_string b "null"
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            go v)
          vs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (name, v) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_char b '"';
            Buffer.add_string b (escape name);
            Buffer.add_string b "\": ";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let of_int i = Num (float_of_int i)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_member name v =
  match member name v with Some (Str s) -> Some s | _ -> None

let int_member name v =
  match member name v with
  | Some (Num f) -> Some (int_of_float (Float.round f))
  | _ -> None

let bool_member name v =
  match member name v with Some (Bool b) -> Some b | _ -> None

let list_member name v =
  match member name v with
  | Some (Arr items) ->
      let strings =
        List.filter_map (function Str s -> Some s | _ -> None) items
      in
      if List.length strings = List.length items then Some strings else None
  | _ -> None
