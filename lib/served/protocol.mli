open Wmm_model
open Wmm_isa

(** The wire protocol of the exploration service.

    Framing is newline-delimited JSON: every request and every
    response is one JSON object on one line, UTF-8, terminated by
    ['\n'].  A connection carries any number of requests; responses
    to one request may span several objects (streaming), matched to
    their request by the echoed [id] and ordered by [seq], with
    [final: true] marking the last.  Responses to {e different}
    requests may interleave freely - clients must demultiplex by
    [id].  The full schema is documented in DESIGN.md §13. *)

val schema_version : int
(** Protocol schema version, echoed as ["v"] in every response.
    Bumped on any incompatible change to request or response
    shapes. *)

type lang_action = L_explore | L_conform | L_rank

type request =
  | Litmus of {
      tests : string list;  (** Library names; [[]] = the whole library. *)
      program : string option;
          (** Litmus-format source text; overrides [tests]. *)
      model : Axiomatic.model option;  (** [None] = every annotated model. *)
      certify : bool;
          (** Attach a proof-carrying certificate (checkable with
              [wmm_bench check]) to every axiomatic verdict. *)
    }
  | Analyze of { tests : string list; arch : Arch.t; cost : bool }
      (** [tests = []] analyses the whole library. *)
  | Conform of {
      arch : Arch.t;
      max_edges : int;
      limit : int;
      infer_limit : int;
    }
  | Lang of {
      action : lang_action;
      tests : string list;
          (** Lock-suite or litmus-library names; [[]] = the default
              battery (the lock suite, plus the lifted library for
              [conform]). *)
      schemes : string list;  (** Compilation schemes; [[]] = defaults. *)
      limit : int;  (** Battery cap; [0] = unbounded. *)
    }
  | Cache_stats
  | Stats
  | Ping
  | Shutdown

type envelope = {
  req_id : Json.t;  (** Echoed verbatim; [Null] when the client sent none. *)
  request : request;
  deadline_ms : int option;
      (** Per-request deadline.  A request still unanswered this many
          milliseconds after admission is answered with a
          [deadline_exceeded] frame and its computation cancelled.
          Delivery-only: not part of the canonical key. *)
  retry : int;
      (** Client-side retry count (0 = first send).  Delivery-only
          bookkeeping surfaced in the server's [client_retries]
          telemetry counter; not part of the canonical key. *)
}

val parse_request : Json.t -> (envelope, string) result
(** Validate one request object: the required [op] field dispatches,
    op-specific fields are checked for type and, where cheap, for
    validity (unknown ops, unknown models/archs and malformed
    programs are rejected here, before any queueing). *)

val op_name : request -> string
(** The wire [op] string for a request. *)

val cacheable : request -> bool
(** Whether responses may be cached / journaled / deduplicated:
    [true] for the pure computations
    ([litmus]/[analyze]/[conform]/[lang]),
    [false] for control and introspection ops. *)

val canonical_key : request -> string
(** A canonical content key for a cacheable request: independent of
    field order, request id, and client, so identical queries from
    different clients share cache entries and in-flight runs.  The
    key embeds the protocol schema version.  Raises [Invalid_argument]
    on non-cacheable requests. *)

val model_of_string : string -> Axiomatic.model option
(** Accepts the wire names [sc]/[tso]/[arm]/[power] (any case) plus
    the display names {!Axiomatic.model_name} produces. *)

val model_wire_name : Axiomatic.model -> string
(** Lower-case wire name, e.g. [Arm] -> ["arm"]. *)

val response :
  id:Json.t ->
  op:string ->
  seq:int ->
  final:bool ->
  ?status:string ->
  ?served_from:string ->
  ?wall_us:float ->
  (string * Json.t) list ->
  string
(** Assemble one response line (without the trailing newline):
    envelope fields ([v], [id], [op], [seq], [final], [status] -
    default ["ok"]) followed by the payload fields. *)

val error_response : id:Json.t -> op:string -> string -> string
(** A single-object [status: "error"] response carrying the message. *)

val overloaded_response : id:Json.t -> op:string -> retry_after_ms:int -> string
(** The structured shed reply: [status: "overloaded"] plus a
    [retry_after_ms] hint; no computation was queued. *)

val deadline_exceeded_response :
  id:Json.t -> op:string -> deadline_ms:int -> elapsed_ms:int -> string
(** The watchdog's reply for a request that overran its
    [deadline_ms]: [status: "deadline_exceeded"] plus the configured
    deadline and the elapsed time at detection.  The underlying
    computation has been cancelled (or its executor quarantined); the
    result, if one ever materialises, is discarded. *)
