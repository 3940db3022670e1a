open Graphcore

type cost_fn = int -> int -> int

let uniform _ _ = 1

let by_degree g u v = 1 + ((Graph.degree g u + Graph.degree g v) / 8)

let plan_cost cost keys =
  List.fold_left
    (fun acc key ->
      let u, v = Edge_key.endpoints key in
      acc + max 1 (cost u v))
    0 keys

let reprice cost revenue =
  Plan.normalize
    (List.map
       (fun (p : Plan.pair) -> { p with Plan.cost = plan_cost cost p.Plan.inserted })
       revenue)

type result = { inserted : (int * int) list; score : int; spent : int; time_s : float }

let maximize ~g ~k ~budget ~cost ?(seed = 42) () =
  let t0 = Unix.gettimeofday () in
  let dec = Truss.Decompose.run g in
  let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
  let ctx = Score.make_ctx ~dec g ~k in
  let config = Pcfr.default_config ~k ~budget in
  let rng = Rng.create seed in
  let revenues =
    List.map
      (fun component ->
        reprice cost (Pcfr.component_revenue ~rng ~ctx ~dec ~config ~budget ~component))
      comps
    |> Array.of_list
  in
  let alloc = Dp.solve ~revenues ~budget in
  let inserted_keys =
    List.concat_map (fun (_, (p : Plan.pair)) -> p.Plan.inserted) alloc.Dp.chosen
    |> List.sort_uniq Edge_key.compare
    |> List.filter (fun key -> not (Graph.mem_edge_key g key))
  in
  (* Deduplication across components can only lower the spend, but clamp
     defensively against the weighted budget. *)
  let inserted_keys =
    let spent = ref 0 in
    List.filter
      (fun key ->
        let c = plan_cost cost [ key ] in
        if !spent + c <= budget then begin
          spent := !spent + c;
          true
        end
        else false)
      inserted_keys
  in
  let inserted = Score.pairs_of_keys inserted_keys in
  let score = Score.evaluate_oracle g ~k ~inserted in
  {
    inserted;
    score;
    spent = plan_cost cost inserted_keys;
    time_s = Unix.gettimeofday () -. t0;
  }
