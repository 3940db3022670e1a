(** Directed flow network with integer capacities, stored flat.

    Arcs live in parallel int arrays indexed by arc id; each arc carries its
    residual twin at [id lxor 1], the classic representation for
    augmenting-path algorithms.  The per-node adjacency is a frozen CSR
    ([first_out] offsets into an [adj] arc-id array), rebuilt lazily after
    the last {!add_arc} — construction is append-only, solving reads the
    frozen layout with zero per-query allocation.  Capacities are plain
    [int]s — the truss flow graphs only ever hold small sums of edge
    counts. *)

type t

val create : nodes:int -> t
(** Network on nodes [0 .. nodes-1] with no arcs. *)

val num_nodes : t -> int

val add_arc : t -> src:int -> dst:int -> cap:int -> int
(** Adds a forward arc of capacity [cap] and its reverse of capacity [0];
    returns the forward arc id.  Capacity must be non-negative. *)

val arc_dst : t -> int -> int
(** Destination node of the arc. *)

val arc_cap : t -> int -> int
(** Remaining residual capacity of the arc. *)

val arc_src : t -> int -> int
(** Source node of the arc (the destination of its twin). *)

val initial_cap : t -> int -> int
(** Capacity the arc was created with. *)

val send : t -> int -> int -> unit
(** [send net id amount] pushes [amount] units along the arc: decreases its
    residual capacity and credits the twin.  Raises [Invalid_argument] when
    [amount] exceeds the residual capacity. *)

val iter_arcs_from : t -> int -> (int -> unit) -> unit
(** All arc ids (forward and residual) leaving a node, ascending id.
    Freezes the CSR adjacency on first use after an [add_arc]. *)

val num_arcs : t -> int
(** Total stored arcs, twins included. *)

val reset : t -> unit
(** Restore every arc to its initial capacity (undoes all flow). *)

(** {2 Raw frozen layout}

    Zero-overhead access for the solver hot loops ({!Dinic}): the live
    arrays themselves, not copies.  [i_cap] may be mutated to route flow
    (keep twins consistent).  The arrays are invalidated by the next
    {!add_arc} — re-fetch after construction completes. *)

type internals = {
  i_dst : int array;  (** arc id -> destination node *)
  i_cap : int array;  (** arc id -> residual capacity (mutable by owner) *)
  i_first_out : int array;  (** node -> first index into [i_adj], length nodes+1 *)
  i_adj : int array;  (** CSR adjacency: arc ids grouped by tail node *)
}

val internals : t -> internals
(** Freezes the CSR adjacency and returns the live arrays. *)
