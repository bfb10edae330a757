(** The JVM's elemental and composite memory barriers.

    Within OpenJDK the Java memory model is enforced by elemental
    barriers [LoadLoad], [LoadStore], [StoreLoad] and [StoreStore]
    generated by the JIT compiler, and by higher-level IR barriers
    ([Volatile], [Acquire], [Release], [LoadFence], [StoreFence])
    that stand for combinations of them. *)

type elemental = Load_load | Load_store | Store_load | Store_store

val all_elementals : elemental list

val elemental_name : elemental -> string
(** ["LoadLoad"], etc., as in the paper's figures. *)

type composite = Volatile | Acquire | Release | Load_fence | Store_fence

val elementals_of_composite : composite -> elemental list
(** [Volatile] is all four; [Acquire]/[LoadFence] combine [LoadLoad]
    and [LoadStore]; [Release]/[StoreFence] combine [LoadStore] and
    [StoreStore]. *)
