(* Quickstart: build a graph, inspect its truss structure, and ask PCFR for
   the best b edges to insert to enlarge the k-truss.

     dune exec examples/quickstart.exe *)

open Graphcore

let () =
  (* The running example of the paper (Fig. 1): a K5 core with two fragile
     3-class components hanging off it. *)
  let g =
    Graph.of_edges
      [
        (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4);
        (0, 7); (5, 7); (0, 5); (2, 5); (2, 8); (5, 8);
        (1, 9); (6, 9); (1, 6); (3, 6); (3, 10); (6, 10);
      ]
  in
  Printf.printf "graph: %d nodes, %d edges\n" (Graph.num_nodes g) (Graph.num_edges g);

  (* 1. Truss decomposition: the trussness of every edge. *)
  let dec = Truss.Decompose.run g in
  Printf.printf "kmax = %d; class sizes:" (Truss.Decompose.kmax dec);
  List.iter (fun (k, c) -> Printf.printf " %d-class:%d" k c) (Truss.Decompose.class_sizes dec);
  print_newline ();

  (* 2. The 4-truss today. *)
  let k = 4 in
  let before = List.length (Truss.Decompose.truss_edges dec k) in
  Printf.printf "current %d-truss: %d edges\n" k before;

  (* 3. Maximize: the best 2 edges to insert. *)
  let budget = 2 in
  let result = Maxtruss.Pcfr.pcfr ~g ~k ~budget () in
  let outcome = result.Maxtruss.Pcfr.outcome in
  Printf.printf "PCFR proposes inserting:";
  List.iter (fun (u, v) -> Printf.printf " (%d,%d)" u v) outcome.Maxtruss.Outcome.inserted;
  Printf.printf "\nnew %d-truss edges gained: %d (%.1fx the budget)\n" k
    outcome.Maxtruss.Outcome.score
    (float_of_int outcome.Maxtruss.Outcome.score /. float_of_int budget);

  (* 4. Verify by applying the plan. *)
  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) outcome.Maxtruss.Outcome.inserted;
  let after = List.length (Truss.Decompose.truss_edges (Truss.Decompose.run g) k) in
  Printf.printf "verified: %d-truss grew from %d to %d edges\n" k before after
