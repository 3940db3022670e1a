open Graphcore

let test_fig1_query_in_core () =
  (* query node a=0: its 4-truss community is the K5 *)
  let g = Helpers.fig1 () in
  let comms = Truss.Community.communities g ~query:0 ~k:4 in
  Alcotest.(check int) "one community" 1 (List.length comms);
  Alcotest.(check int) "K5's ten edges" 10 (List.length (List.hd comms))

let test_fig1_query_outside () =
  (* node h=7 touches no 4-truss edge *)
  let g = Helpers.fig1 () in
  Alcotest.(check int) "no community" 0
    (List.length (Truss.Community.communities g ~query:7 ~k:4))

let test_two_separate_communities () =
  (* two K4s sharing only the query node: two triangle-connected classes *)
  let g = Graph.create () in
  let clique nodes =
    Array.iteri
      (fun i u -> Array.iteri (fun j v -> if i < j then ignore (Graph.add_edge g u v)) nodes)
      nodes
  in
  clique [| 0; 1; 2; 3 |];
  clique [| 0; 10; 11; 12 |];
  let comms = Truss.Community.communities g ~query:0 ~k:4 in
  Alcotest.(check int) "two communities" 2 (List.length comms);
  List.iter
    (fun c -> Alcotest.(check int) "each is a K4" 6 (List.length c))
    comms

let test_community_graph () =
  let g = Helpers.fig1 () in
  let cg = Truss.Community.community_graph g ~query:0 ~k:4 in
  Alcotest.(check int) "union graph edges" 10 (Graph.num_edges cg);
  Alcotest.(check int) "five nodes" 5 (Graph.num_nodes cg)

let test_max_k () =
  let g = Helpers.fig1 () in
  Alcotest.(check int) "a reaches the 5-truss" 5 (Truss.Community.max_k g ~query:0);
  Alcotest.(check int) "i only reaches the 3-truss" 3 (Truss.Community.max_k g ~query:8)

let prop_community_is_truss =
  QCheck2.Test.make ~name:"every community satisfies the k-truss bound internally" ~count:50
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let k = 3 in
      let nodes = ref [] in
      Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
      QCheck2.assume (!nodes <> []);
      let query = List.hd !nodes in
      List.for_all
        (fun comm ->
          let sub = Graph.of_edge_keys comm in
          Helpers.is_k_truss sub ~k)
        (Truss.Community.communities g ~query ~k))

let prop_communities_touch_query =
  QCheck2.Test.make ~name:"every community contains an edge at the query" ~count:50
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let nodes = ref [] in
      Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
      QCheck2.assume (!nodes <> []);
      let query = List.hd !nodes in
      List.for_all
        (fun comm ->
          List.exists
            (fun key ->
              let u, v = Edge_key.endpoints key in
              u = query || v = query)
            comm)
        (Truss.Community.communities g ~query ~k:3))

let suite =
  [
    Alcotest.test_case "fig1 query in core" `Quick test_fig1_query_in_core;
    Alcotest.test_case "fig1 query outside" `Quick test_fig1_query_outside;
    Alcotest.test_case "two separate communities" `Quick test_two_separate_communities;
    Alcotest.test_case "community graph" `Quick test_community_graph;
    Alcotest.test_case "max_k" `Quick test_max_k;
    Helpers.qtest prop_community_is_truss;
    Helpers.qtest prop_communities_touch_query;
  ]
