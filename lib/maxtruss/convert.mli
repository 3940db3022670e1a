(** Complete conversion of a chosen edge set into the k-truss
    (Algorithm 2 plus the Clique and Greedy strategies).

    Given a target subset [S] of a component, find new edges [P] whose
    insertion drags every edge of [S] (and of [P]) into the k-truss:

    + compute the component-based support CSup (Definition 6) of every
      target edge inside [H = T_k ∪ S];
    + greedily insert stable candidate edges that cover the most unstable
      targets;
    + finish off stragglers, one at a time, with whichever of the Clique
      strategy (embed the edge into a k-clique, the smallest k-truss) or
      the cascading Greedy strategy is shorter, ties to the cascade.

    The straggler phase computes that choice without finishing both
    strategies:
    - the clique plan is built first, and its length caps the cascade
      ([min (6k, |clique|)] insertions, [6k] when no clique exists) — a
      longer cascade would lose the comparison anyway;
    - the clique recruit keeps each pool node's [H]-adjacency count to the
      chosen set, bumped by every pick, so a recruit never rescans the
      pool;
    - the cascade trials its insertions on [H] itself and removes them
      before returning, so no straggler copies [H] (none of them is an
      edge of [H], so [H] is restored exactly; its ties go by
      {!Edge_key.compare}, so adjacency order never decides a plan).

    The result is a {e proposed} plan; callers verify its actual score with
    {!Score.evaluate} — the paper makes the same distinction between the
    estimated cut cost and the real budget charged.

    Spans: [convert.convert] with children [convert.build_h],
    [convert.greedy_cover] and [convert.stragglers].  Counters:
    [convert.conversions], [convert.stragglers] (targets left after the
    cover) and [convert.cascade_capped] (cascades stopped by the
    clique-length cap). *)

open Graphcore

type outcome = {
  plan : (int * int) list;  (** new edges to insert *)
  clique_fallbacks : int;  (** targets that needed the clique strategy *)
  greedy_fallbacks : int;  (** targets finished by the cascading greedy *)
}

val convert : ctx:Score.ctx -> target:Edge_key.t list -> unit -> outcome
(** Clique recruits come from the nodes of [H], their graph neighbours,
    and, when those number fewer than [2k], further graph nodes. *)

val csup : h:Graph.t -> Edge_key.t list -> (Edge_key.t, int) Hashtbl.t
(** Component-based support of the target edges inside a prepared [H]
    subgraph — exposed for tests and the DAG-size experiment. *)

(** State after the first two steps (CSup and the greedy cover), the input
    of the straggler phase. *)
type covered = {
  h : Graph.t;  (** [H] with the cover's insertions *)
  sup : (Edge_key.t, int) Hashtbl.t;  (** support in [h] of each target *)
  unstable : (Edge_key.t, unit) Hashtbl.t;  (** the stragglers *)
  inserted : Edge_key.t list;  (** the cover's insertions *)
}

val cover : ctx:Score.ctx -> target:Edge_key.t list -> covered
(** The first two steps of {!convert} on the same target; exposed so the
    straggler phase can be checked against a reference procedure. *)
