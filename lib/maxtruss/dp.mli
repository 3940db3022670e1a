(** Multiple-budget-assignment dynamic programming (Section V).

    Given the exp-revenue menus of all components and a total budget [b],
    pick at most one plan per component maximizing the summed score under
    the summed-cost constraint (Problem 1 — a grouped knapsack).

    Three algorithms:
    - {!binary}: each component offers only its full-conversion plan; the
      0-1 knapsack of CBTM, the paper's baseline.
    - {!sequential}: Algorithm 3, exact over all plans, O(|C| b^2) worst
      case (O(|C| b S) with S plans per component as implemented).
    - {!sorted}: Algorithm 4, the heap-assisted approximation whose rows
      bound the number of {e chosen} components by [min(|C|, b)], near-exact
      in practice (the paper reports a gap of 11 out of ~32k at its worst).

    {!solve}, the production entry point, is {!sequential} at every budget:
    it is exact and, on the Table V kernel, faster than {!sorted}.
    {!sorted}, {!binary} and {!sequential_literal} stay as the Table V /
    Fig. 7 subjects and CBTM's DP. *)

type allocation = {
  total_score : int;
  total_cost : int;
  chosen : (int * Plan.pair) list;  (** (component index, selected plan) *)
}

val binary : revenues:Plan.revenue array -> budget:int -> allocation
val sequential : revenues:Plan.revenue array -> budget:int -> allocation

val sequential_literal : revenues:Plan.revenue array -> budget:int -> allocation
(** Algorithm 3 exactly as printed: for every cell, scan every smaller
    budget [u] and read the step function [S_i[j - u]] — Theta(|C| b^2).
    Same optimal scores as {!sequential} (which skips budgets where the
    step function is flat); kept for the Fig. 7 running-time comparison. *)

val sorted : revenues:Plan.revenue array -> budget:int -> allocation

val solve : revenues:Plan.revenue array -> budget:int -> allocation
(** {!sequential} inside the [dp.solve] span. *)

val brute_force : revenues:Plan.revenue array -> budget:int -> allocation
(** Exhaustive enumeration — exponential, for tests on tiny instances. *)

val feasible : revenues:Plan.revenue array -> budget:int -> allocation -> bool
(** Sanity check: each chosen plan exists in its component's menu, every
    component appears at most once, and costs/scores add up within budget. *)
