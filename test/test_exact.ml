open Graphcore
open Maxtruss

let test_fig1_optimum () =
  (* Budget 2 on the Fig. 1 graph: the optimum is the paper's answer, 10. *)
  let g = Helpers.fig1 () in
  let dec = Truss.Decompose.run g in
  let klass = Truss.Decompose.k_class dec 3 in
  let pool = Array.to_list (Candidate.pool ~g ~component:klass ()) in
  let r = Exact.optimum ~g ~k:4 ~budget:2 ~pool () in
  Alcotest.(check int) "optimum is 10" 10 r.Exact.score

let test_zero_budget () =
  let g = Helpers.fig1 () in
  let r = Exact.optimum ~g ~k:4 ~budget:0 () in
  Alcotest.(check int) "no budget no score" 0 r.Exact.score;
  Alcotest.(check int) "one set explored" 1 r.Exact.explored

let test_search_space_guard () =
  let g = Helpers.clique 12 in
  (* remove many edges to create a big non-edge pool *)
  for u = 0 to 11 do
    for v = u + 1 to 11 do
      if (u + v) mod 2 = 0 then ignore (Graph.remove_edge g u v)
    done
  done;
  match Exact.optimum ~g ~k:4 ~budget:12 ~max_sets:1000 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected search-space guard to fire"

let test_pool_size () =
  let g = Helpers.triangle () in
  Alcotest.(check int) "triangle has no non-edges" 0 (Exact.pool_size ~g);
  let g = Helpers.path 4 in
  Alcotest.(check int) "path has 3 non-edges" 3 (Exact.pool_size ~g)

let prop_pcfr_within_optimum =
  (* PCFR is a heuristic.  The exact solver is restricted to a small pool,
     so neither strictly bounds the other — but on clustered instances PCFR
     should reach at least half of the restricted optimum. *)
  QCheck2.Test.make ~name:"PCFR reaches at least half the restricted optimum" ~count:10
    ~print:QCheck2.Print.(list (pair int int))
    (Helpers.clustered_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let klass = Truss.Decompose.k_class dec 3 in
      QCheck2.assume (klass <> []);
      let pool = Array.to_list (Candidate.pool ~g ~component:klass ~max_size:10 ()) in
      QCheck2.assume (pool <> []);
      let budget = 2 in
      let opt = Exact.optimum ~g ~k:4 ~budget ~pool () in
      let pcfr = (Pcfr.pcfr ~g ~k:4 ~budget ()).Pcfr.outcome in
      opt.Exact.score = 0 || 2 * pcfr.Outcome.score >= opt.Exact.score)

let suite =
  [
    Alcotest.test_case "fig1 optimum is 10" `Quick test_fig1_optimum;
    Alcotest.test_case "zero budget" `Quick test_zero_budget;
    Alcotest.test_case "search space guard" `Quick test_search_space_guard;
    Alcotest.test_case "pool size" `Quick test_pool_size;
    Helpers.qtest prop_pcfr_within_optimum;
  ]
