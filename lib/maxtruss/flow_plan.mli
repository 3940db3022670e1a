(** Flow-graph construction and the parameterized min-cut sweep
    (Steps 2-3 of Section IV-C).

    For a gate value [g], the flow network is: source [s] with arcs of
    capacity [q] (the total DAG link weight) to every block; the DAG links
    with their weights; and arcs from each block [B_i] to the sink of
    capacity [base + max(0, g - w1*L(B_i) - w2*|B_i| - d_i)].  The source
    side of a minimum s-t cut is the set of blocks to anchor.  Raising [g]
    shrinks the anchored set monotonically (Lemma 1), so a bisection sweep
    over [g in [0, 2q + w1*Lmax + w2*Bmax]] uncovers a menu of distinct
    partial-conversion plans. *)

type selection = {
  g_param : int;  (** the gate value that produced this cut *)
  blocks : int list;  (** anchored (source-side) blocks, sorted *)
  h_score : int;  (** sum of anchored block sizes — the paper's h(g) *)
  cut_value : int;  (** capacity of the minimum cut *)
}

val min_cut_selection : dag:Block_dag.t -> w1:int -> w2:int -> g:int -> selection
(** One cut at a fixed gate value. *)

val g_max : dag:Block_dag.t -> w1:int -> w2:int -> int
(** Gate value guaranteed to empty the selection:
    [2q + w1*Lmax + w2*Bmax]. *)

val sweep :
  dag:Block_dag.t ->
  w1:int ->
  w2:int ->
  probes:int ->
  unit ->
  selection list
(** Bisection sweep using at most [probes] cut computations; returns the
    distinct non-empty selections found, largest [h_score] first.

    Each probe is one {!min_cut_selection}: the network is built and
    solved from scratch at that [g] (counted in [flow_plan.g_probes]).
    Every selection is either that cut at its [g_param], or that cut minus
    exactly one sink-adjacent block (a leaf-drop variant). *)
