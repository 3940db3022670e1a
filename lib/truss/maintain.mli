(** Incremental k-truss maintenance under batches of edge insertions and
    deletions.

    One kernel serves every caller: {!level_delta} computes the k-truss
    delta of a batch for one level [k], against a base adjacency that it
    never writes — a frozen {!Csr} snapshot (the service's epochs) or a
    {!Graph.t} (plan scoring).  Deletions only shrink the k-truss and
    insertions only grow it, and every changed edge is triangle-connected
    to a batch edge, so the work is proportional to the affected region,
    not the graph.  {!batch_update_csr} stacks the levels into a delta of
    the whole trussness function.  A full {!Decompose.run} of the updated
    graph gives the same answer; the tests check against it and against a
    definition-level oracle. *)

open Graphcore

(** The functional adjacency view the kernel peels against: a base plus
    insertion and deletion sets.  Building one never copies or mutates
    the base; the base must not change while the view is in use.

    Both constructors normalise the batch: self-loops, inserted pairs
    already in the base, deleted pairs absent from it and repeats (in
    either orientation) are dropped. *)
module Overlay : sig
  type t

  val make : csr:Csr.t -> inserted:(int * int) list -> deleted:(int * int) list -> t
  (** View over a frozen snapshot. *)

  val of_graph : Graph.t -> inserted:(int * int) list -> deleted:(int * int) list -> t
  (** View over a mutable graph, read through {!Graph.mem_edge} and
      {!Graph.iter_common_neighbors}; no snapshot is built. *)
end

(** Relative to the k-truss of the base minus the deletions, which for an
    insert-only batch is the old k-truss itself.  In a mixed batch an edge
    the deletions demote can come back through the insertions, and then
    appears in both lists. *)
type level_delta = {
  promoted : Edge_key.t list;
      (** edges of the new k-truss that the deletions alone leave outside
          it (inserted edges that made it into the truss included) *)
  demoted : Edge_key.t list;
      (** edges of the old k-truss that the deletions alone remove from it
          (deleted truss edges included) *)
}

val level_delta : Overlay.t -> in_old:(Edge_key.t -> bool) -> k:int -> level_delta
(** The k-truss delta of the overlay's batch.  [in_old] must be the
    k-truss membership of the base graph.  Pure: neither the base nor
    [in_old]'s backing store is written. *)

type batch_result = {
  changes : (Edge_key.t * int option) list;
      (** new trussness per changed edge — [(key, Some tau)] for edges
          whose trussness moved (inserted edges included), [(key, None)]
          for deleted edges; feed to {!Decompose.patched} *)
  levels : int;  (** truss levels examined *)
  region_edges : int;
      (** total promoted + demoted edges across all levels — the size of
          the work the incremental pass actually did *)
}

val batch_update_csr :
  csr:Csr.t ->
  tau:(Edge_key.t -> int option) ->
  kmax:int ->
  inserted:(int * int) list ->
  deleted:(int * int) list ->
  batch_result
(** Full-trussness delta of one batch against the frozen snapshot: runs
    {!level_delta} over {!Overlay.make} for ascending [k] from 3 until the
    new k-truss is empty.  [tau] is the base trussness ([None] for absent
    edges), [kmax] its maximum; the batch is normalised as in {!Overlay}.
    Pure: neither the snapshot nor any graph is mutated, so any number of
    readers may keep querying the base epoch while this runs. *)
