(** Verified scoring of insertion plans.

    The score of a plan is the number of edges that are in the k-truss of
    the updated graph but not in the k-truss of the original graph
    (inserted edges that made it into the truss count too) — exactly the
    quantity the paper's experiments report.  Every plan the maximization
    algorithms emit is scored through this module, never trusted from
    flow-graph estimates. *)

open Graphcore

type ctx = {
  g : Graph.t;  (** the working graph; scoring only reads it *)
  k : int;
  old_truss : (Edge_key.t, unit) Hashtbl.t;  (** k-truss edge set of [g] *)
}

val make_ctx : ?dec:Truss.Decompose.t -> Graph.t -> k:int -> ctx
(** Reads the baseline k-truss off [dec], the decomposition of [g]
    (computed when absent).  The context stays valid until [g] is
    permanently mutated; rebuild it after committing insertions. *)

val evaluate : ctx -> (int * int) list -> Edge_key.t list
(** The edges a candidate insertion promotes into the k-truss (inserted
    edges that make it included), via {!Truss.Maintain.level_delta} over
    an overlay of [ctx.g]; neither [ctx.g] nor [ctx.old_truss] is
    written.  Self-loops, pairs already in [ctx.g] and repeats in either
    orientation are ignored. *)

val local_ctx : ctx -> component:Edge_key.t list -> ctx
(** Context restricted to one component's neighborhood [H = T_k ∪ E_c]
    (see {!Truss.Onion.build_h}).  Scoring a plan against it is exact for
    promotions inside the component — the only ones a component plan can
    cause, by triangle-connectivity independence — and orders of magnitude
    cheaper than scoring against the whole graph.  Plans must only insert
    edges between [H]'s nodes (all plans produced by this library do). *)

val score : ctx -> (int * int) list -> int
(** [List.length (evaluate ctx p)]. *)

val evaluate_oracle : Graph.t -> k:int -> inserted:(int * int) list -> int
(** Independent full recomputation — the test oracle for {!evaluate} and
    the verified score of every outcome: decomposes [g] and [g] plus
    [inserted], and counts the edges with trussness at least [k] after
    that were below [k] before.  Shares no code with the incremental
    kernel. *)

val pairs_of_keys : Edge_key.t list -> (int * int) list
val keys_of_pairs : (int * int) list -> Edge_key.t list
