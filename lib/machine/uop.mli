(** Micro-operations consumed by the performance simulator.

    Platform code paths (barrier implementations, kernel macros) and
    workload generators compile down to sequences of these.  The
    fence constructors are *semantic* categories; the per-arch
    instruction selection happens in the platform layer and the
    per-arch cost in {!Timing}.

    [t] is the vocabulary code paths are written and printed in; a
    simulator stream is a [packed array], one machine word per uop. *)

type t =
  | Busy of int  (** Pure computation, in cycles. *)
  | Load of int  (** Location id. *)
  | Store of int
  | Load_acquire of int  (** ldar / ld+isync idiom. *)
  | Store_release of int  (** stlr / lwsync+st idiom. *)
  | Fence_full  (** dmb ish / hwsync: drains the store buffer. *)
  | Fence_store  (** dmb ishst / eieio: store-order marker. *)
  | Fence_load  (** dmb ishld. *)
  | Fence_lw  (** POWER lwsync. *)
  | Fence_pipeline  (** isb / isync: pipeline flush. *)
  | Branch  (** A conditional branch (ctrl-dependency strategies). *)
  | Spin of int  (** Injected cost function, loop iterations. *)
  | Spin_light of int  (** Scratch-register variant (no stack spill). *)
  | Nops of int  (** Injected nop padding. *)
  | Counter_shared of int
      (** Invocation-counter increment in a shared line (one per code
          path, contended by all cores). *)
  | Counter_private of int
      (** Invocation-counter increment in a per-core line. *)

val pp : Format.formatter -> t -> unit

val is_fence : t -> bool

val is_memory : t -> bool

(** {1 Packed uops} *)

(** The constructors of [t] without their arguments. *)
module Kind : sig
  type t =
    | Busy
    | Load
    | Store
    | Load_acquire
    | Store_release
    | Fence_full
    | Fence_store
    | Fence_load
    | Fence_lw
    | Fence_pipeline
    | Branch
    | Spin
    | Spin_light
    | Nops
    | Counter_shared
    | Counter_private
end

type packed [@@immediate]
(** One uop in one unboxed word: the constructor in the low 4 bits, the
    argument in the rest.  A [packed array] holds no pointers, so
    filling one allocates nothing and needs no write barrier. *)

val min_arg : int
val max_arg : int
(** The representable arguments, [-2{^58}] to [2{^58} - 1] on 64-bit
    hosts. *)

val make : Kind.t -> int -> packed
(** [make k arg]; pass 0 for a kind without an argument.  Raises
    [Invalid_argument] when [arg] is outside [min_arg .. max_arg]. *)

val pack : t -> packed
(** Raises [Invalid_argument] when the argument is out of range. *)

val unpack : packed -> t

val kind : packed -> Kind.t

val arg : packed -> int
(** The argument; 0 for a kind without one. *)

val pack_list : t list -> packed array
