(** Truss decomposition: the trussness [tau(e)] of every edge (Definition 2
    of the paper).

    Classic bottom-up peeling: repeatedly remove a minimum-support edge,
    assigning it trussness [support + 2] (made monotone), and decrement the
    support of the two other edges of each triangle it closed.  Runs in
    O(m^1.5) with the bucket queue. *)

open Graphcore

type t
(** The one trussness structure: a key -> tau table for lookups, plus the
    edges grouped by trussness with per-k offsets, so {!truss_edges} and
    {!k_class} cost O(answer) and {!truss_size} O(1). *)

val run : Graph.t -> t
(** Decompose the graph; [g] is never modified.  [run g] is
    [of_csr (Csr.of_graph g)], with the snapshot built inside the same
    [truss.decompose] span. *)

val of_csr : Csr.t -> t
(** Decompose a snapshot the caller already holds.

    Peels on flat edge-id arrays with an intrusive doubly-linked bucket
    list — no hashing anywhere in the hot loop.  Only the initial support
    pass ({!Support.all_csr}) uses the {!Par} pool; the peel itself is
    sequential.  The ordered views come from one O(m + kmax) bucket pass
    by trussness, no comparison sort. *)

val patched : t -> changes:(Edge_key.t * int option) list -> t
(** Copy with trussness overrides applied: [(key, Some tau)] sets the
    edge's trussness (adding the edge when new), [(key, None)] drops it.
    [t] is untouched.  The class sizes are updated from the delta and the
    ordered views rebuilt by the same bucket pass as {!of_csr}: O(m + kmax
    + |changes|), independent of the peeling the delta replaced.  This is
    how the service's mutation log derives the post-batch decomposition
    from a {!Maintain.batch_update_csr} delta. *)

val trussness : t -> Edge_key.t -> int
(** Trussness of an edge; raises [Not_found] for edges absent from the
    decomposed graph. *)

val trussness_opt : t -> Edge_key.t -> int option

val kmax : t -> int
(** Largest [k] with a non-empty k-truss: [0] for a graph with no edges,
    at least [2] for any non-empty graph. *)

val k_class : t -> int -> Edge_key.t list
(** Edges with trussness exactly [k] (the k-class [E_k]), O(answer), in
    the reverse of {!iter}'s order. *)

val truss_edges : t -> int -> Edge_key.t list
(** Edges with trussness at least [k] (the edge set [T_k] of the k-truss),
    O(answer), deepest class first. *)

val truss_size : t -> int -> int
(** |T_k| in O(1). *)

val truss_edge_table : t -> int -> (Edge_key.t, unit) Hashtbl.t
(** [T_k] as a set, filled in {!iter}'s order. *)

val class_sizes : t -> (int * int) list
(** [(k, |E_k|)] pairs, ascending in [k]. *)

val num_edges : t -> int

val iter : t -> (Edge_key.t -> int -> unit) -> unit
(** Iterate over all (edge, trussness) pairs. *)
