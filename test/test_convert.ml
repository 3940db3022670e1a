open Graphcore
open Maxtruss

let test_fig1_full_component () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  let conv = Convert.convert ~ctx ~target:Helpers.fig1_c1_edges () in
  Alcotest.(check int) "full conversion costs 2" 2 (List.length conv.Convert.plan);
  Alcotest.(check int) "and scores 8" 8 (Score.score ctx conv.Convert.plan)

let test_fig1_partial_target () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  (* anchor blocks A u B = {(a,f),(c,f),(a,h),(f,h)} *)
  let target = List.map (fun (u, v) -> Edge_key.make u v) [ (0, 5); (2, 5); (0, 7); (5, 7) ] in
  let conv = Convert.convert ~ctx ~target () in
  Alcotest.(check int) "partial conversion costs 1" 1 (List.length conv.Convert.plan);
  Alcotest.(check int) "and scores 5" 5 (Score.score ctx conv.Convert.plan)

let test_csup () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  let target = Helpers.fig1_c1_edges in
  let h = Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:target in
  let sup = Convert.csup ~h target in
  (* (a,f) sees triangles through h (in S) and c (backdrop (a,c), S (c,f)) *)
  Alcotest.(check (option int)) "CSup(a,f)" (Some 2) (Hashtbl.find_opt sup (Edge_key.make 0 5));
  Alcotest.(check (option int)) "CSup(a,h)" (Some 1) (Hashtbl.find_opt sup (Edge_key.make 0 7))

let test_plan_edges_are_new () =
  let g = Helpers.fig1 () in
  let ctx = Score.make_ctx g ~k:4 in
  let conv = Convert.convert ~ctx ~target:Helpers.fig1_c1_edges () in
  List.iter
    (fun (u, v) ->
      if Graph.mem_edge g u v then Alcotest.failf "plan proposes existing edge (%d,%d)" u v)
    conv.Convert.plan

let test_stable_target_needs_nothing () =
  (* A target already inside the k-truss needs no insertions. *)
  let g = Helpers.clique 6 in
  let ctx = Score.make_ctx g ~k:4 in
  let conv = Convert.convert ~ctx ~target:[ Edge_key.make 0 1 ] () in
  Alcotest.(check int) "empty plan" 0 (List.length conv.Convert.plan)

let test_clique_fallback_for_isolated () =
  (* A lone triangle far from any truss can only reach a 4-truss by clique
     building or cascading greedy; conversion must still succeed. *)
  let g = Helpers.fig1 () in
  ignore (Graph.add_edge g 30 31);
  ignore (Graph.add_edge g 31 32);
  ignore (Graph.add_edge g 30 32);
  let ctx = Score.make_ctx g ~k:4 in
  let target = [ Edge_key.make 30 31; Edge_key.make 31 32; Edge_key.make 30 32 ] in
  let conv = Convert.convert ~ctx ~target () in
  Alcotest.(check bool) "plan non-empty" true (conv.Convert.plan <> []);
  Alcotest.(check bool) "verified conversion" true (Score.score ctx conv.Convert.plan >= 3)

let prop_conversion_always_verifies =
  (* The cornerstone guarantee: whatever Convert proposes for a whole
     component, applying it really does pull the full component into the
     k-truss. *)
  QCheck2.Test.make ~name:"full-component conversion verifies" ~count:40
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      (* A k-truss needs at least k nodes; smaller graphs are genuinely
         inconvertible (the clique strategy has nowhere to recruit). *)
      QCheck2.assume (Graph.num_nodes g >= k);
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k in
      List.for_all
        (fun comp ->
          let conv = Convert.convert ~ctx ~target:comp () in
          let promoted = Hashtbl.create 16 in
          List.iter (fun e -> Hashtbl.replace promoted e ()) (Score.evaluate ctx conv.Convert.plan);
          List.for_all (fun key -> Hashtbl.mem promoted key) comp)
        comps)

let prop_plan_edges_absent =
  QCheck2.Test.make ~name:"plans only propose absent edges" ~count:40
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let k = 4 in
      let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
      QCheck2.assume (comps <> []);
      let ctx = Score.make_ctx g ~k in
      List.for_all
        (fun comp ->
          let conv = Convert.convert ~ctx ~target:comp () in
          List.for_all (fun (u, v) -> not (Graph.mem_edge g u v)) conv.Convert.plan)
        comps)

(* The pruned straggler phase (clique plan first, cascade capped by its
   length, recruit counts kept incrementally, trial edges undone on H)
   returns exactly what the reference procedure returns. *)
let oracle_fallbacks = ref (0, 0)

let prop_matches_oracle =
  let print_outcome o =
    Printf.sprintf "plan=[%s] clique=%d greedy=%d"
      (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) o.Convert.plan))
      o.Convert.clique_fallbacks o.Convert.greedy_fallbacks
  in
  QCheck2.Test.make ~name:"convert matches the straggler oracle" ~count:200
    ~print:(fun (k, edges) ->
      Printf.sprintf "k=%d edges=[%s]" k
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
    QCheck2.Gen.(pair (int_range 5 6) (Helpers.random_graph_gen ~max_n:16 ()))
    (fun (k, edges) ->
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let ctx = Score.make_ctx ~dec g ~k in
      List.for_all
        (fun comp ->
          let got = Convert.convert ~ctx ~target:comp () in
          let want = Helpers.oracle_convert ~ctx ~target:comp in
          let c, gr = !oracle_fallbacks in
          oracle_fallbacks := (c + want.Convert.clique_fallbacks, gr + want.Convert.greedy_fallbacks);
          got = want
          || QCheck2.Test.fail_reportf "convert: %s\noracle: %s" (print_outcome got) (print_outcome want))
        (Truss.Connectivity.components ~g ~dec ~lo:2 ~hi:k))

(* The property must see both fallback kinds, or it checks nothing. *)
let oracle_test =
  let name, speed, run = Helpers.qtest prop_matches_oracle in
  ( name,
    speed,
    fun () ->
      oracle_fallbacks := (0, 0);
      run ();
      let c, gr = !oracle_fallbacks in
      Printf.printf "clique fallbacks %d, greedy fallbacks %d\n" c gr;
      Alcotest.(check bool) "clique fallbacks occurred" true (c > 0);
      Alcotest.(check bool) "greedy fallbacks occurred" true (gr > 0) )

let suite =
  [
    Alcotest.test_case "fig1 full component" `Quick test_fig1_full_component;
    Alcotest.test_case "fig1 partial target" `Quick test_fig1_partial_target;
    Alcotest.test_case "csup" `Quick test_csup;
    Alcotest.test_case "plan edges are new" `Quick test_plan_edges_are_new;
    Alcotest.test_case "stable target needs nothing" `Quick test_stable_target_needs_nothing;
    Alcotest.test_case "clique fallback" `Quick test_clique_fallback_for_isolated;
    Helpers.qtest prop_conversion_always_verifies;
    Helpers.qtest prop_plan_edges_absent;
    oracle_test;
  ]
