(* Fixed-k k-truss queries: |T_k| read off one decomposition. *)

let truss_size g ~k = List.length (Truss.Decompose.truss_edges (Truss.Decompose.run g) k)

let test_clique () =
  let g = Helpers.clique 5 in
  Alcotest.(check int) "K5 5-truss" 10 (truss_size g ~k:5);
  Alcotest.(check int) "K5 6-truss empty" 0 (truss_size g ~k:6)

let test_fig1 () =
  let g = Helpers.fig1 () in
  Alcotest.(check int) "3-truss is whole graph" 22 (truss_size g ~k:3);
  Alcotest.(check int) "4-truss is K5" 10 (truss_size g ~k:4)

let test_k2_everything () =
  let g = Helpers.path 5 in
  Alcotest.(check int) "2-truss keeps all edges" 4 (truss_size g ~k:2)

let suite =
  [
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "fig1" `Quick test_fig1;
    Alcotest.test_case "k=2 keeps everything" `Quick test_k2_everything;
  ]
