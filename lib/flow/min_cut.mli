(** Minimum s-t cut extraction from a residual network.

    After {!Dinic.max_flow} saturates the network, the source side of a
    minimum cut is exactly the set of nodes still reachable from [s] in the
    residual graph (max-flow/min-cut duality). *)

type t = {
  value : int;  (** max-flow value = cut capacity *)
  source_side : bool array;  (** [source_side.(v)] iff [v] is on the s side *)
}

val compute : Flow_network.t -> s:int -> t:int -> t
(** Runs {!Dinic.max_flow} then extracts the cut.  The network is left in
    its saturated state; {!Flow_network.reset} restores it.  The reported
    source side is the {e minimal} one (residual reachability from [s]). *)

val compute_max : Flow_network.t -> s:int -> t:int -> t
(** Same cut value, but reports the {e maximal} source side: the complement
    of the nodes that can still reach [t] in the residual network.  When
    several minimum cuts tie, this one anchors as many nodes as possible —
    the behaviour the truss flow graphs rely on at [g = 0]. *)

val cut_arcs : Flow_network.t -> t -> int list
(** Forward arc ids crossing from the source side to the sink side; their
    initial capacities sum to [value]. *)
