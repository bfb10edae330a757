open Wmm_model

(** Critical cycles and per-model delay sets (Shasha–Snir,
    generalised per architecture as in "Don't sit on the fence").

    A mixed cycle alternates program-order edges with inter-thread
    conflict edges; it is *critical* for a model iff at least one of
    its po edges is a relaxation the model permits (a "delay").  The
    static [preserved] predicate mirrors the preserved program order
    and barrier order of {!Wmm_model.Axiomatic}'s models; it
    deliberately omits the [addr;po] and [dep;rfi] refinements, so it
    can only
    over-approximate the delay set — the extra fences that produces
    are pruned again by the placement minimiser. *)

type cycle = {
  nodes : Event_graph.access list;  (** In traversal order. *)
  po_edges : Event_graph.po_edge list;
  delays : Event_graph.po_edge list;
      (** The po edges of the cycle not preserved by the model. *)
}

val preserved : Axiomatic.model -> Event_graph.po_edge -> bool
(** Whether the model orders the edge's endpoints without further
    fencing: same-location pairs (SC per location), architectural
    dependencies, acquire/release, or an intervening barrier the
    model gives sufficient strength. *)

val cycles : Event_graph.t -> (Event_graph.access list * Event_graph.po_edge list) list
(** All simple mixed cycles: at most two accesses per thread, at
    least two threads, at least one po edge, bounded length. *)

val critical_cycles : Axiomatic.model -> Event_graph.t -> cycle list

val delay_edges : Axiomatic.model -> Event_graph.t -> Event_graph.po_edge list
(** Union of the delays of every critical cycle, deduplicated,
    sorted by (src, dst) node id. *)
