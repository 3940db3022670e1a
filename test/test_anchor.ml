open Graphcore
open Maxtruss

let test_no_anchors_is_plain_truss () =
  let g = Helpers.fig1 () in
  let anchored = Anchor.anchored_k_truss g ~k:4 ~anchors:[] in
  let plain = Truss.Decompose.truss_edges (Truss.Decompose.run g) 4 in
  Alcotest.(check int) "same size" (List.length plain) (Hashtbl.length anchored)

let test_anchor_keeps_incident_edges () =
  (* anchoring f=5 exempts C1's edges at f from peeling *)
  let g = Helpers.fig1 () in
  let anchored = Anchor.anchored_k_truss g ~k:4 ~anchors:[ 5 ] in
  Alcotest.(check bool) "edge (a,f) kept" true (Hashtbl.mem anchored (Edge_key.make 0 5));
  Alcotest.(check bool) "K5 kept" true (Hashtbl.mem anchored (Edge_key.make 0 1))

let test_anchor_all_keeps_everything () =
  let g = Helpers.fig1 () in
  let nodes = List.init 11 Fun.id in
  let anchored = Anchor.anchored_k_truss g ~k:4 ~anchors:nodes in
  Alcotest.(check int) "everything kept" (Graph.num_edges g) (Hashtbl.length anchored)

let test_greedy_fig1 () =
  let g = Helpers.fig1 () in
  let r = Anchor.greedy ~g ~k:4 ~budget:2 () in
  Alcotest.(check bool) "positive followers" true (r.Anchor.followers > 0);
  Alcotest.(check bool) "budget respected" true (List.length r.Anchor.anchors <= 2);
  (* anchoring f (or g) keeps that component's edges incident to it *)
  Alcotest.(check bool) "graph untouched" true (Graph.num_edges g = 22)

let test_greedy_no_material () =
  let g = Helpers.path 6 in
  let r = Anchor.greedy ~g ~k:5 ~budget:3 () in
  Alcotest.(check int) "nothing anchorable" 0 r.Anchor.followers

let prop_monotone_in_anchors =
  QCheck2.Test.make ~name:"anchored truss grows with more anchors" ~count:60
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let nodes = ref [] in
      Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
      QCheck2.assume (List.length !nodes >= 2);
      match !nodes with
      | a :: b :: _ ->
        let t0 = Anchor.anchored_k_truss g ~k:4 ~anchors:[] in
        let t1 = Anchor.anchored_k_truss g ~k:4 ~anchors:[ a ] in
        let t2 = Anchor.anchored_k_truss g ~k:4 ~anchors:[ a; b ] in
        let subset s t = Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem t k) s true in
        subset t0 t1 && subset t1 t2
      | _ -> true)

let prop_followers_exempt_or_supported =
  QCheck2.Test.make ~name:"every anchored-truss edge is supported or anchored" ~count:60
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let nodes = ref [] in
      Graph.iter_nodes g (fun v -> nodes := v :: !nodes);
      QCheck2.assume (!nodes <> []);
      let anchors = [ List.hd !nodes ] in
      let kept = Anchor.anchored_k_truss g ~k:4 ~anchors in
      let sub = Graph.create () in
      Hashtbl.iter
        (fun key () ->
          let u, v = Edge_key.endpoints key in
          ignore (Graph.add_edge sub u v))
        kept;
      Hashtbl.fold
        (fun key () acc ->
          let u, v = Edge_key.endpoints key in
          acc
          && (Truss.Support.of_edge sub u v >= 2 || List.mem u anchors || List.mem v anchors))
        kept true)

let suite =
  [
    Alcotest.test_case "no anchors = plain truss" `Quick test_no_anchors_is_plain_truss;
    Alcotest.test_case "anchor keeps incident edges" `Quick test_anchor_keeps_incident_edges;
    Alcotest.test_case "anchor all keeps everything" `Quick test_anchor_all_keeps_everything;
    Alcotest.test_case "greedy on fig1" `Quick test_greedy_fig1;
    Alcotest.test_case "greedy with no material" `Quick test_greedy_no_material;
    Helpers.qtest prop_monotone_in_anchors;
    Helpers.qtest prop_followers_exempt_or_supported;
  ]
