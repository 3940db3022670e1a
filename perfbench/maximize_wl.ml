(* The maximize workloads: Pcfr.pcfr on one registry graph, timed end to
   end, plus a stage-by-stage replay of the same solve for the traced run.

   The replay mirrors the call sequence inside [Pcfr.run] at one domain,
   including [Pcfr.flow_selections]' private dedup and cap, so it can
   attribute time only while the library makes those calls; [fidelity]
   holds it to the exact inserted edges and score of [Pcfr.pcfr]. *)

open Graphcore
module Pcfr = Maxtruss.Pcfr
module Score = Maxtruss.Score

type solution = { inserted : (int * int) list; score : int }

let solve ~seed ~g ~k ~budget =
  let r = Pcfr.pcfr ~seed ~g ~k ~budget () in
  let o = r.Pcfr.outcome in
  { inserted = o.Maxtruss.Outcome.inserted; score = o.Maxtruss.Outcome.score }

(* {2 Correctness} *)

(* The k-truss edge set of the original graph, computed once per run by the
   CSR decomposition — the recount's "before" side. *)
let truss_before ~g ~k = Truss.Decompose.truss_edge_table (Truss.Decompose.run g) k

(* Independent recount of a solution: the inserted edges must be distinct
   non-edges of [g], at most [budget] of them, and [score] must equal the
   number of k-truss edges of the augmented graph that are not k-truss
   edges of [g], both sides from a CSR decomposition. *)
let check ~g ~before ~k ~budget sol =
  let keys = List.map (fun (u, v) -> Edge_key.make u v) sol.inserted in
  let distinct = List.length (List.sort_uniq Edge_key.compare keys) = List.length keys in
  let non_edges = List.for_all (fun (u, v) -> u <> v && not (Graph.mem_edge g u v)) sol.inserted in
  distinct && non_edges
  && List.length sol.inserted <= budget
  &&
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) sol.inserted;
  let after = Truss.Decompose.run g' in
  let recount = ref 0 in
  Truss.Decompose.iter after (fun key tau ->
      if tau >= k && not (Hashtbl.mem before key) then incr recount);
  !recount = sol.score

(* {2 Staged replay} *)

(* [Pcfr.flow_selections], stage by stage. *)
let flow_selections layers ~ctx ~dec ~(config : Pcfr.config) ~component =
  let g = ctx.Score.g and k = ctx.Score.k in
  let h_graph =
    Layers.time layers "onion.build_h" (fun () ->
        Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:component)
  in
  let onion =
    Layers.time layers "onion.peel" (fun () ->
        Truss.Onion.peel ~impl:`Csr ~h:h_graph ~k ~candidates:component ())
  in
  let dag =
    Layers.time layers "block_dag.build" (fun () ->
        Maxtruss.Block_dag.build ~h:h_graph ~dec ~k ~component ~onion)
  in
  let seen = Hashtbl.create 16 in
  let selections =
    List.concat_map
      (fun (w1, w2) ->
        List.filter
          (fun sel ->
            let signature =
              String.concat "," (List.map string_of_int sel.Maxtruss.Flow_plan.blocks)
            in
            if Hashtbl.mem seen signature then false
            else begin
              Hashtbl.replace seen signature ();
              true
            end)
          (Layers.time layers "flow_plan.sweep" (fun () ->
               Maxtruss.Flow_plan.sweep ~dag ~w1 ~w2 ~probes:config.g_probes ())))
      config.w_pairs
  in
  let selections =
    let cap = max 4 (3 * config.g_probes / 2) in
    let n = List.length selections in
    if n <= cap then selections
    else begin
      let arr =
        Array.of_list
          (List.sort
             (fun a b -> Int.compare b.Maxtruss.Flow_plan.h_score a.Maxtruss.Flow_plan.h_score)
             selections)
      in
      List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1)))
    end
  in
  (dag, selections)

type counts = {
  mutable conversions : int;
  mutable useful_conversions : int;
  mutable plans_generated : int;
  mutable plans_kept : int;
}

(* [Pcfr.convert_selections], stage by stage. *)
let convert_selections layers counts ~ctx ~lctx ~budget (dag, selections) =
  List.filter_map
    (fun sel ->
      let target = Maxtruss.Block_dag.edges_of_blocks dag sel.Maxtruss.Flow_plan.blocks in
      if target = [] then None
      else begin
        counts.conversions <- counts.conversions + 1;
        let conv =
          Layers.time layers "convert.convert" (fun () -> Maxtruss.Convert.convert ~ctx ~target ())
        in
        let cost = List.length conv.Maxtruss.Convert.plan in
        if cost = 0 || cost > budget then None
        else begin
          let score =
            Layers.time layers "score.score" (fun () -> Score.score lctx conv.Maxtruss.Convert.plan)
          in
          if score <= 0 then None
          else begin
            counts.useful_conversions <- counts.useful_conversions + 1;
            Some
              (Maxtruss.Plan.make ~inserted:(Score.keys_of_pairs conv.Maxtruss.Convert.plan) ~score)
          end
        end
      end)
    selections

(* [Pcfr.run] for the configuration [Pcfr.pcfr] builds, at one domain and
   without a time limit. *)
let replay layers counts ~seed ~g ~k ~budget =
  let config = { (Pcfr.default_config ~k ~budget) with Pcfr.seed } in
  let rng = Rng.create config.seed in
  let gw = Graph.copy g in
  let total_inserted = ref [] in
  let remaining = ref config.budget in
  let h = ref 1 in
  let continue = ref true in
  while
    !continue
    && (!remaining > 0 && (!h = 1 || !remaining >= config.min_level_budget))
    && k - !h >= 2
    && !h <= config.max_h
  do
    let dec = Layers.time layers "truss.decompose" (fun () -> Truss.Decompose.run gw) in
    let comps =
      Layers.time layers "truss.components" (fun () ->
          Truss.Connectivity.components ~g:gw ~dec ~lo:(k - !h) ~hi:k)
    in
    let comps =
      match config.max_components with
      | Some cap -> List.filteri (fun i _ -> i < cap) comps
      | None -> comps
    in
    if comps = [] then begin
      if !h >= config.max_h then continue := false else incr h
    end
    else begin
      let ctx = Layers.time layers "score.make_ctx" (fun () -> Score.make_ctx gw ~k) in
      let level_config =
        if !h > 1 && config.use_flow then { config with use_random = false } else config
      in
      let scaffolds =
        List.map
          (fun component ->
            let lctx =
              Layers.time layers "score.local_ctx" (fun () -> Score.local_ctx ctx ~component)
            in
            let flow =
              if level_config.use_flow then
                Some (flow_selections layers ~ctx ~dec ~config:level_config ~component)
              else None
            in
            (component, lctx, flow))
          comps
      in
      let revenues =
        Array.of_list
          (List.map
             (fun (component, lctx, flow) ->
               let random_pairs =
                 if level_config.use_random then
                   Layers.time layers "random_interp.interpolate" (fun () ->
                       Maxtruss.Random_interp.interpolate ~rng ~ctx:lctx ~component
                         ~budget:!remaining ~repeats:level_config.repeats ~forbidden:ctx.Score.g ())
                 else []
               in
               let flow_plans =
                 match flow with
                 | None -> []
                 | Some sc -> convert_selections layers counts ~ctx ~lctx ~budget:!remaining sc
               in
               Maxtruss.Plan.normalize (random_pairs @ flow_plans))
             scaffolds)
      in
      let plan_count = Array.fold_left (fun acc r -> acc + List.length r) 0 revenues in
      let alloc =
        Layers.time layers "dp.solve" (fun () -> Maxtruss.Dp.solve ~revenues ~budget:!remaining)
      in
      counts.plans_generated <- counts.plans_generated + plan_count;
      counts.plans_kept <- counts.plans_kept + List.length alloc.Maxtruss.Dp.chosen;
      let chosen_edges =
        List.concat_map
          (fun (_, (p : Maxtruss.Plan.pair)) -> p.inserted)
          alloc.Maxtruss.Dp.chosen
        |> List.sort_uniq Edge_key.compare
      in
      let new_edges = List.filter (fun key -> not (Graph.mem_edge_key gw key)) chosen_edges in
      let new_edges = List.filteri (fun i _ -> i < !remaining) new_edges in
      if new_edges = [] then begin
        if !h >= config.max_h then continue := false else incr h
      end
      else begin
        let as_pairs = Score.pairs_of_keys new_edges in
        (* The level's verified gain: [Pcfr.run] scores the commit against
           the whole-graph context before inserting it. *)
        ignore (Layers.time layers "score.score" (fun () -> Score.score ctx as_pairs));
        List.iter (fun (u, v) -> ignore (Graph.add_edge gw u v)) as_pairs;
        total_inserted := as_pairs @ !total_inserted;
        remaining := !remaining - List.length new_edges;
        if !h >= config.max_h then continue := false else incr h
      end
    end
  done;
  let inserted = List.rev !total_inserted in
  let score =
    Layers.time layers "score.evaluate_oracle" (fun () -> Score.evaluate_oracle g ~k ~inserted)
  in
  { inserted; score }

let new_counts () = { conversions = 0; useful_conversions = 0; plans_generated = 0; plans_kept = 0 }

(* Replay fidelity: same inserted edges, in the same order, and the same
   score as the single [Pcfr.pcfr] call. *)
let fidelity ~expected ~replayed =
  expected.inserted = replayed.inserted && expected.score = replayed.score
