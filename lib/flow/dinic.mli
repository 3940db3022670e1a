(** Dinic's maximum-flow algorithm.

    Builds level graphs by BFS and saturates them with blocking flows found
    by an explicit-stack DFS with the current-arc optimization, both running
    over the network's frozen CSR layout with zero per-phase allocation;
    O(V^2 E) in general and far faster on the shallow truss flow graphs
    (source -> blocks -> sink, plus the block DAG), which have unit-depth
    layering.  The iterative DFS cannot overflow the OCaml stack however
    deep the level graph. *)

val max_flow : Flow_network.t -> s:int -> t:int -> int
(** Computes the maximum s-t flow, mutating residual capacities in the
    network.  Returns the flow value.  On a network already carrying a
    feasible flow this computes only the increment; callers that want a
    from-scratch solve start from a fresh or {!Flow_network.reset}
    network. *)
