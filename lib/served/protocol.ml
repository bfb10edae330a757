open Wmm_model
open Wmm_isa

(* v2 added the optional per-request "deadline_ms" and "retry"
   envelope fields and the "deadline_exceeded" response status; v3
   the conform "engine" field (named in the canonical key, so cached
   results from different exploration engines cannot alias); v4 the
   litmus "certify" flag and the per-verdict "certificate" response
   field carrying a proof-carrying certificate for the axiomatic
   verdict; v5 dropped the conform "engine" field with the second
   and third exploration engines (a request still carrying it has it
   ignored like any unknown key). *)
let schema_version = 5

type litmus_mode = Exhaustive | Random of int

type lang_action = L_explore | L_conform | L_rank

type request =
  | Litmus of {
      tests : string list;
      program : string option;
      model : Axiomatic.model option;
      mode : litmus_mode;
      certify : bool;
    }
  | Analyze of { tests : string list; arch : Arch.t; cost : bool }
  | Conform of {
      arch : Arch.t;
      max_edges : int;
      limit : int;
      infer_limit : int;
    }
  | Lang of {
      action : lang_action;
      tests : string list;  (** Lock or litmus names; [] = default battery. *)
      schemes : string list;  (** Compilation schemes; [] = defaults. *)
      limit : int;
    }
  | Cache_stats
  | Stats
  | Ping
  | Shutdown

type envelope = {
  req_id : Json.t;
  request : request;
  deadline_ms : int option;
  retry : int;
}

let model_wire_name = Wmm_registry.Registry.model_wire_name
let model_of_string = Wmm_registry.Registry.model_of_string

let ( let* ) = Result.bind

let arch_field v =
  match Json.str_member "arch" v with
  | None -> Ok Arch.Armv8
  | Some s -> (
      match Arch.of_string s with
      | Some a -> Ok a
      | None -> Error (Printf.sprintf "unknown arch %S" s))

let int_field v name default =
  match Json.member name v with
  | None -> Ok default
  | Some (Json.Num f) -> Ok (int_of_float (Float.round f))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let bool_field v name default =
  match Json.member name v with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let tests_field v =
  match Json.member "tests" v with
  | None -> Ok []
  | Some (Json.Arr _) -> (
      match Json.list_member "tests" v with
      | Some ts -> Ok ts
      | None -> Error "field \"tests\" must be an array of strings")
  | Some (Json.Str t) -> Ok [ t ]
  | Some _ -> Error "field \"tests\" must be an array of strings"

let parse_litmus v =
  let* tests = tests_field v in
  let* program =
    match Json.member "program" v with
    | None | Some Json.Null -> Ok None
    | Some (Json.Str p) -> Ok (Some p)
    | Some _ -> Error "field \"program\" must be a string"
  in
  let* model =
    match Json.member "model" v with
    | None | Some Json.Null -> Ok None
    | Some (Json.Str s) -> (
        match model_of_string s with
        | Some m -> Ok (Some m)
        | None -> Error (Printf.sprintf "unknown model %S" s))
    | Some _ -> Error "field \"model\" must be a string"
  in
  let* mode =
    match Json.str_member "mode" v with
    | None | Some "exhaustive" ->
        Ok Exhaustive
    | Some "random" ->
        let* iters = int_field v "iterations" 2000 in
        if iters <= 0 then Error "field \"iterations\" must be positive"
        else Ok (Random iters)
    | Some m -> Error (Printf.sprintf "unknown litmus mode %S" m)
  in
  let* certify = bool_field v "certify" false in
  Ok (Litmus { tests; program; model; mode; certify })

let parse_analyze v =
  let* tests = tests_field v in
  let* arch = arch_field v in
  let* cost = bool_field v "cost" false in
  Ok (Analyze { tests; arch; cost })

let parse_conform v =
  let* arch = arch_field v in
  let* max_edges = int_field v "max_edges" 2 in
  let* limit = int_field v "limit" 64 in
  let* infer_limit = int_field v "infer_limit" 16 in
  if max_edges < 1 then Error "field \"max_edges\" must be >= 1"
  else if limit < 1 then Error "field \"limit\" must be >= 1"
  else Ok (Conform { arch; max_edges; limit; infer_limit })

let lang_action_name = function
  | L_explore -> "explore"
  | L_conform -> "conform"
  | L_rank -> "rank"

let parse_lang v =
  let* action =
    match Json.str_member "action" v with
    | None | Some "conform" -> Ok L_conform
    | Some "explore" -> Ok L_explore
    | Some "rank" -> Ok L_rank
    | Some a -> Error (Printf.sprintf "unknown lang action %S" a)
  in
  let* tests = tests_field v in
  let* schemes =
    match Json.member "schemes" v with
    | None -> Ok []
    | Some (Json.Arr _) -> (
        match Json.list_member "schemes" v with
        | Some ss -> Ok ss
        | None -> Error "field \"schemes\" must be an array of strings")
    | Some (Json.Str s) -> Ok [ s ]
    | Some _ -> Error "field \"schemes\" must be an array of strings"
  in
  let* limit = int_field v "limit" 0 in
  if limit < 0 then Error "field \"limit\" must be >= 0"
  else Ok (Lang { action; tests; schemes; limit })

let parse_request v =
  match v with
  | Json.Obj _ ->
      let req_id = Option.value ~default:Json.Null (Json.member "id" v) in
      let* request =
        match Json.str_member "op" v with
        | None -> Error "missing required string field \"op\""
        | Some "litmus" -> parse_litmus v
        | Some "analyze" -> parse_analyze v
        | Some "conform" -> parse_conform v
        | Some "lang" -> parse_lang v
        | Some "cache-stats" -> Ok Cache_stats
        | Some "stats" -> Ok Stats
        | Some "ping" -> Ok Ping
        | Some "shutdown" -> Ok Shutdown
        | Some op -> Error (Printf.sprintf "unknown op %S" op)
      in
      (* Envelope-only fields: they shape delivery, not the answer, so
         neither participates in the canonical key. *)
      let* deadline_ms =
        match Json.member "deadline_ms" v with
        | None | Some Json.Null -> Ok None
        | Some (Json.Num f) ->
            let d = int_of_float (Float.round f) in
            if d <= 0 then Error "field \"deadline_ms\" must be positive"
            else Ok (Some d)
        | Some _ -> Error "field \"deadline_ms\" must be a number"
      in
      let* retry = int_field v "retry" 0 in
      Ok { req_id; request; deadline_ms; retry }
  | _ -> Error "request must be a JSON object"

let cacheable = function
  | Litmus _ | Analyze _ | Conform _ | Lang _ -> true
  | Cache_stats | Stats | Ping | Shutdown -> false

let op_name = function
  | Litmus _ -> "litmus"
  | Analyze _ -> "analyze"
  | Conform _ -> "conform"
  | Lang _ -> "lang"
  | Cache_stats -> "cache-stats"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* The canonical key must depend only on the semantics of the query:
   field order and request ids are gone by now, list order is
   preserved (it changes result order, hence the result), and inline
   program text is digested so keys stay bounded. *)
let canonical_key req =
  match req with
  | Litmus { tests; program; model; mode; certify } ->
      Printf.sprintf "served/v%d|litmus|tests=%s|program=%s|model=%s|mode=%s|certify=%b"
        schema_version
        (String.concat "," tests)
        (match program with
        | None -> "-"
        | Some p -> Digest.to_hex (Digest.string p))
        (match model with None -> "all" | Some m -> model_wire_name m)
        (match mode with
        | Exhaustive -> "exhaustive"
        | Random n -> Printf.sprintf "random:%d" n)
        certify
  | Analyze { tests; arch; cost } ->
      Printf.sprintf "served/v%d|analyze|tests=%s|arch=%s|cost=%b" schema_version
        (String.concat "," tests) (Arch.name arch) cost
  | Conform { arch; max_edges; limit; infer_limit } ->
      Printf.sprintf "served/v%d|conform|arch=%s|max_edges=%d|limit=%d|infer=%d"
        schema_version (Arch.name arch) max_edges limit infer_limit
  | Lang { action; tests; schemes; limit } ->
      Printf.sprintf "served/v%d|lang|action=%s|tests=%s|schemes=%s|limit=%d"
        schema_version (lang_action_name action) (String.concat "," tests)
        (String.concat "," schemes) limit
  | req -> invalid_arg ("Protocol.canonical_key: non-cacheable op " ^ op_name req)

let response ~id ~op ~seq ~final ?(status = "ok") ?served_from ?wall_us payload =
  let fields =
    [
      ("v", Json.of_int schema_version);
      ("id", id);
      ("op", Json.Str op);
      ("seq", Json.of_int seq);
      ("final", Json.Bool final);
      ("status", Json.Str status);
    ]
    @ (match served_from with
      | Some s -> [ ("served_from", Json.Str s) ]
      | None -> [])
    @ (match wall_us with
      | Some w -> [ ("wall_us", Json.Num (Float.round w)) ]
      | None -> [])
    @ payload
  in
  Json.to_string (Json.Obj fields)

let error_response ~id ~op msg =
  response ~id ~op ~seq:0 ~final:true ~status:"error" [ ("error", Json.Str msg) ]

let overloaded_response ~id ~op ~retry_after_ms =
  response ~id ~op ~seq:0 ~final:true ~status:"overloaded"
    [ ("retry_after_ms", Json.of_int retry_after_ms) ]

let deadline_exceeded_response ~id ~op ~deadline_ms ~elapsed_ms =
  response ~id ~op ~seq:0 ~final:true ~status:"deadline_exceeded"
    [
      ("deadline_ms", Json.of_int deadline_ms);
      ("elapsed_ms", Json.of_int elapsed_ms);
    ]
