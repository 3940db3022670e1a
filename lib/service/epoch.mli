(** A frozen, self-consistent snapshot of the service's graph state: the
    graph, its {!Graphcore.Csr} snapshot, the truss decomposition (which
    also answers the ordered truss queries), and a monotonically
    increasing generation stamp.

    Epochs are immutable after construction — every field is read-only from
    the moment a {!Store} publishes one, so any number of reader domains
    may query the same epoch concurrently while a writer builds the next.
    The only internal mutability is a memo table for onion layers,
    protected by a mutex (and idempotent anyway, since the peel is a pure
    function of the epoch). *)

open Graphcore

type t

val create : ?generation:int -> Graph.t -> t
(** Freeze a graph into a fresh epoch: copies [g] (the caller's graph is
    never retained), then {!of_graph}.  [generation] defaults to 0. *)

val of_graph : generation:int -> Graph.t -> t
(** Build an epoch around [graph]: one CSR snapshot, decomposed in place
    ({!Truss.Decompose.of_csr}).  Ownership of [graph] transfers to the
    epoch: the caller must never mutate it afterwards. *)

val make :
  graph:Graph.t ->
  csr:Csr.t ->
  dec:Truss.Decompose.t ->
  index:Truss.Index.t ->
  generation:int ->
  t
(** Assemble an epoch from parts the caller has already built (the
    mutation log's incremental path).  Ownership of [graph] transfers to
    the epoch: the caller must never mutate it afterwards, and [csr] and
    [dec] must describe exactly [graph]'s edge set.

    [~index] selects nothing: the decomposition is the index, and the
    label is kept solely for the frozen benchmark call site in
    [perfbench/publish_wl.ml]. Other callers pass [~index:dec]. *)

val graph : t -> Graph.t
(** The epoch's graph.  {b Read-only:} mutating it corrupts every reader
    of this epoch; callers that need a mutable graph must {!Graph.copy}
    it. *)

val csr : t -> Csr.t
val decompose : t -> Truss.Decompose.t

val index : t -> Truss.Index.t
(** {!decompose}; kept solely for the frozen benchmark call site in
    [perfbench/publish_wl.ml]. *)

val generation : t -> int
val num_nodes : t -> int
val num_edges : t -> int
val kmax : t -> int

val onion_layers : t -> k:int -> (Edge_key.t * int) list * int
(** Onion layers of the (k-1)-class toward the k-truss (Definition 5):
    [(edges_with_layers, max_layer)], edges sorted by (layer, key).
    Memoized per [k] inside the epoch; safe from any domain.  Empty for
    [k < 3] or an empty (k-1)-class. *)
