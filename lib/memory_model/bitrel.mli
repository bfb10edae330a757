(** Dense, mutable, bitset-backed binary relations over event ids.

    Event ids in a candidate execution are dense ([0 .. n-1]), so a
    relation is an n-by-n adjacency matrix stored as packed bit rows
    (63 bits per OCaml immediate word).  Union, intersection and
    composition run a word at a time, O(n^2/63); transitive closure is
    bitset Warshall, O(n^3/63); acyclicity is a DFS that exits on the
    first back edge.  This is the one relation type of the exploration
    core: {!Execution} holds its relations as [t], and {!Axiomatic} and
    {!Enumerate} compute with them.  Property tests keep every
    operation in agreement with the certificate checker's independent
    boolean-matrix relations. *)

type t

(** Subsets of the event id universe, packed as bitsets; used for
    domain/range restriction without per-element closures. *)
module Mask : sig
  type m

  val create : int -> m
  (** All-zero mask over universe [0 .. n-1]. *)

  val of_pred : int -> (int -> bool) -> m

  val of_list : int -> int list -> m

  val set : m -> int -> unit

  val mem : m -> int -> bool

  val complement : m -> m

  val inter : m -> m -> m

  val count : m -> int

  val iter : (int -> unit) -> m -> unit

  val to_list : m -> int list
end

val create : int -> t
(** Empty relation over [0 .. n-1]. *)

val size : t -> int
(** The universe bound [n]. *)

val copy : t -> t

val clear : t -> unit

val add : t -> int -> int -> unit

val remove : t -> int -> int -> unit

val mem : t -> int -> int -> bool

val is_empty : t -> bool

val cardinal : t -> int

val equal : t -> t -> bool

val union_into : into:t -> t -> unit
(** [into := into U r]. *)

val union : t -> t -> t

val union_all : int -> t list -> t
(** [union_all n rs]: union over a fresh relation of universe [n]. *)

val inter : t -> t -> t

val diff : t -> t -> t

val compose : t -> t -> t
(** [compose r s] = [{ (a, c) | (a, b) in r, (b, c) in s }], built by
    OR-ing [s]'s rows: O(edges(r) / 63 * n). *)

val inverse : t -> t

val cross : Mask.m -> Mask.m -> t

val restrict : t -> domain:Mask.m -> range:Mask.m -> t

val remove_diagonal : t -> t

val filter : (int -> int -> bool) -> t -> t

val transitive_closure_in_place : t -> unit
(** Bitset Floyd-Warshall: for each [k], rows reaching [k] absorb
    row [k]. *)

val transitive_closure : t -> t

val reflexive_transitive_closure : t -> t
(** Transitive closure plus the identity on the full universe (the
    carrier of every event id, matching how the axiomatic checks use
    it). *)

val is_irreflexive : t -> bool

val is_acyclic : t -> bool
(** DFS three-colour cycle detection, returning [false] on the first
    back edge found. *)

val iter : (int -> int -> unit) -> t -> unit

val iter_succ : t -> int -> (int -> unit) -> unit
(** Iterate the successors (set bits of the row) of one node. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val of_list : int -> (int * int) list -> t

val to_list : t -> (int * int) list
(** The pairs, sorted lexicographically. *)

val pp : Format.formatter -> t -> unit
