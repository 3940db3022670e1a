(* The ordered views of a decomposition — truss_edges, k_class, truss_size,
   class_sizes — after a full run and after a patch. *)

open Graphcore

let test_fig1_index () =
  let dec = Truss.Decompose.run (Helpers.fig1 ()) in
  Alcotest.(check int) "kmax" 5 (Truss.Decompose.kmax dec);
  Alcotest.(check int) "|T_2|" 22 (Truss.Decompose.truss_size dec 2);
  Alcotest.(check int) "|T_3|" 22 (Truss.Decompose.truss_size dec 3);
  Alcotest.(check int) "|T_4|" 10 (Truss.Decompose.truss_size dec 4);
  Alcotest.(check int) "|T_5|" 10 (Truss.Decompose.truss_size dec 5);
  Alcotest.(check int) "|T_6|" 0 (Truss.Decompose.truss_size dec 6);
  Alcotest.(check int) "3-class size" 12 (List.length (Truss.Decompose.k_class dec 3));
  Alcotest.(check (list (pair int int))) "class sizes" [ (3, 12); (5, 10) ]
    (Truss.Decompose.class_sizes dec);
  Alcotest.(check (option int)) "edge lookup" (Some 3)
    (Truss.Decompose.trussness_opt dec (Edge_key.make 0 7))

let test_empty_index () =
  let dec = Truss.Decompose.run (Graph.create ()) in
  Alcotest.(check int) "kmax 0" 0 (Truss.Decompose.kmax dec);
  Alcotest.(check (list (pair int int))) "no classes" [] (Truss.Decompose.class_sizes dec);
  for k = 0 to 3 do
    Alcotest.(check int) "no truss" 0 (Truss.Decompose.truss_size dec k);
    Alcotest.(check (list int)) "no truss edges" [] (Truss.Decompose.truss_edges dec k);
    Alcotest.(check (list int)) "no class" [] (Truss.Decompose.k_class dec k)
  done

(* Every ordered view of [dec] against a key -> trussness table. *)
let views_match dec expected =
  let sorted l = List.sort Edge_key.compare l in
  let expected_where p =
    sorted (Hashtbl.fold (fun key tau acc -> if p tau then key :: acc else acc) expected [])
  in
  let kmax = Hashtbl.fold (fun _ tau acc -> max tau acc) expected 0 in
  let ok = ref (Truss.Decompose.kmax dec = kmax) in
  if Truss.Decompose.num_edges dec <> Hashtbl.length expected then ok := false;
  Hashtbl.iter
    (fun key tau -> if Truss.Decompose.trussness_opt dec key <> Some tau then ok := false)
    expected;
  let classes = ref [] in
  for k = 0 to kmax + 2 do
    let t_k = expected_where (fun tau -> tau >= k) and e_k = expected_where (fun tau -> tau = k) in
    if e_k <> [] then classes := (k, List.length e_k) :: !classes;
    if sorted (Truss.Decompose.truss_edges dec k) <> t_k then ok := false;
    if Truss.Decompose.truss_size dec k <> List.length t_k then ok := false;
    if sorted (Truss.Decompose.k_class dec k) <> e_k then ok := false
  done;
  if Truss.Decompose.class_sizes dec <> List.rev !classes then ok := false;
  !ok

let table_of dec =
  let tbl = Hashtbl.create 64 in
  Truss.Decompose.iter dec (Hashtbl.replace tbl);
  tbl

let prop_index_matches_decompose =
  QCheck2.Test.make ~name:"index agrees with decomposition everywhere" ~count:80
    (Helpers.random_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      views_match dec (table_of dec) && views_match dec (Helpers.oracle_trussness g))

let test_patched () =
  let dec = Truss.Decompose.run (Helpers.fig1 ()) in
  (* remove one 5-class edge, promote (0,7) to 4, insert a fresh edge at 3 *)
  let changes =
    [
      (Edge_key.make 0 1, None);
      (Edge_key.make 0 7, Some 4);
      (Edge_key.make 7 9, Some 3);
    ]
  in
  let dec' = Truss.Decompose.patched dec ~changes in
  Alcotest.(check (option int)) "removed edge gone" None
    (Truss.Decompose.trussness_opt dec' (Edge_key.make 0 1));
  Alcotest.(check (option int)) "promoted edge moved" (Some 4)
    (Truss.Decompose.trussness_opt dec' (Edge_key.make 0 7));
  Alcotest.(check (option int)) "inserted edge present" (Some 3)
    (Truss.Decompose.trussness_opt dec' (Edge_key.make 7 9));
  Alcotest.(check (list (pair int int))) "patched class sizes" [ (3, 12); (4, 1); (5, 9) ]
    (Truss.Decompose.class_sizes dec');
  Alcotest.(check bool) "patched views" true (views_match dec' (table_of dec'));
  (* the source decomposition is untouched *)
  Alcotest.(check (option int)) "original unchanged" (Some 3)
    (Truss.Decompose.trussness_opt dec (Edge_key.make 0 7));
  Alcotest.(check (option int)) "original still has (0,1)" (Some 5)
    (Truss.Decompose.trussness_opt dec (Edge_key.make 0 1));
  Alcotest.(check (list (pair int int))) "original class sizes" [ (3, 12); (5, 10) ]
    (Truss.Decompose.class_sizes dec)

(* A patch must be indistinguishable from decomposing the mutated graph,
   for mixed insert + delete deltas produced by the real maintenance
   pass — the service's publish path. *)
let prop_patched_matches_rebuild =
  QCheck2.Test.make ~name:"patched equals rebuild on maintenance deltas" ~count:150
    Helpers.batch_gen
    (fun (edges, raw_ins, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let dec = Truss.Decompose.run g in
      let inserted, deleted = Helpers.net_batch g (raw_ins, del_picks) in
      let result =
        Truss.Maintain.batch_update_csr ~csr:(Csr.of_graph g)
          ~tau:(Truss.Decompose.trussness_opt dec)
          ~kmax:(Truss.Decompose.kmax dec) ~inserted ~deleted
      in
      let patched = Truss.Decompose.patched dec ~changes:result.Truss.Maintain.changes in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> ignore (Graph.remove_edge g' u v)) deleted;
      List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
      views_match patched (table_of (Truss.Decompose.run g')))

let suite =
  [
    Alcotest.test_case "fig1 index" `Quick test_fig1_index;
    Alcotest.test_case "empty index" `Quick test_empty_index;
    Helpers.qtest prop_index_matches_decompose;
    Alcotest.test_case "patched patches and preserves" `Quick test_patched;
    Helpers.qtest prop_patched_matches_rebuild;
  ]
