open Graphcore

(* One level of the incremental kernel over a graph-based overlay, with the
   old k-truss taken from the definition-level oracle. *)
let delta g ~k ?(inserted = []) ?(deleted = []) () =
  let old_truss = Helpers.oracle_k_truss g ~k in
  let ov = Truss.Maintain.Overlay.of_graph g ~inserted ~deleted in
  (old_truss, Truss.Maintain.level_delta ov ~in_old:(Hashtbl.mem old_truss) ~k)

let promoted_count g ~k inserted =
  List.length (snd (delta g ~k ~inserted ())).Truss.Maintain.promoted

let demoted_count g ~k deleted =
  List.length (snd (delta g ~k ~deleted ())).Truss.Maintain.demoted

let sorted = List.sort Edge_key.compare

(* Oracle comparison for one batch at one level, against the oracle
   k-trusses of the base graph G, of G \ deleted (mid) and of
   (G \ deleted) ∪ inserted (fresh): demoted = old - mid and
   promoted = fresh - mid. *)
let matches_oracle g ~k ~inserted ~deleted =
  let old_truss, d = delta g ~k ~inserted ~deleted () in
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> ignore (Graph.remove_edge g' u v)) deleted;
  let mid = Helpers.oracle_k_truss g' ~k in
  List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g' u v)) inserted;
  let fresh = Helpers.oracle_k_truss g' ~k in
  let minus a b = Hashtbl.fold (fun key () acc -> if Hashtbl.mem b key then acc else key :: acc) a [] in
  sorted d.Truss.Maintain.promoted = sorted (minus fresh mid)
  && sorted d.Truss.Maintain.demoted = sorted (minus old_truss mid)
  && Hashtbl.length old_truss - List.length d.demoted + List.length d.promoted
     = Hashtbl.length fresh

let test_insert_completes_truss () =
  (* K4 minus one edge has no 4-truss; adding the edge back creates one. *)
  let g = Helpers.clique 4 in
  ignore (Graph.remove_edge g 0 1);
  let old_truss, d = delta g ~k:4 ~inserted:[ (0, 1) ] () in
  Alcotest.(check int) "no 4-truss before" 0 (Hashtbl.length old_truss);
  Alcotest.(check int) "all six edges promoted" 6 (List.length d.Truss.Maintain.promoted);
  Alcotest.(check int) "nothing demoted" 0 (List.length d.Truss.Maintain.demoted)

let test_existing_edges_ignored () =
  let g = Helpers.clique 4 in
  Alcotest.(check int) "nothing promoted" 0 (promoted_count g ~k:4 [ (0, 1) ]);
  Alcotest.(check int) "graph unchanged" 6 (Graph.num_edges g)

let test_useless_insert () =
  Alcotest.(check int) "cycle has no 4-truss" 0 (promoted_count (Helpers.path 4) ~k:4 [ (0, 3) ])

let test_fig1_partial_plan () =
  (* Inserting (c,h)=(2,7) must promote exactly 5 edges (Fig. 1(c)). *)
  Alcotest.(check int) "five new 4-truss edges" 5 (promoted_count (Helpers.fig1 ()) ~k:4 [ (2, 7) ])

let test_fig1_full_plan () =
  (* Inserting (c,h) and (a,i) fully converts C1: 8 new edges (Fig. 1(b)). *)
  Alcotest.(check int) "eight new 4-truss edges" 8
    (promoted_count (Helpers.fig1 ()) ~k:4 [ (2, 7); (0, 8) ])

let test_unnormalised_batch () =
  (* Repeats in either orientation, a self-loop and pairs already in the
     graph must act exactly like the normalised batch. *)
  let g = Helpers.fig1 () in
  let raw = [ (2, 7); (7, 2); (3, 3); (0, 1); (8, 0); (2, 7); (0, 8) ] in
  let clean = [ (2, 7); (8, 0) ] in
  List.iter
    (fun k ->
      let _, d_raw = delta g ~k ~inserted:raw ~deleted:[ (1, 0); (0, 1); (4, 4); (0, 9) ] () in
      let _, d_clean = delta g ~k ~inserted:clean ~deleted:[ (0, 1) ] () in
      let label = Printf.sprintf "k=%d" k in
      Alcotest.(check (list int)) (label ^ " promoted") (sorted d_clean.Truss.Maintain.promoted)
        (sorted d_raw.Truss.Maintain.promoted);
      Alcotest.(check (list int)) (label ^ " demoted") (sorted d_clean.Truss.Maintain.demoted)
        (sorted d_raw.Truss.Maintain.demoted);
      let ctx = Maxtruss.Score.make_ctx g ~k in
      Alcotest.(check (list int)) (label ^ " Score.evaluate")
        (sorted (Maxtruss.Score.evaluate ctx clean))
        (sorted (Maxtruss.Score.evaluate ctx raw)))
    [ 3; 4; 5 ];
  Alcotest.(check int) "graph unchanged" 22 (Graph.num_edges g)

let insertion_gen =
  QCheck2.Gen.(
    let* edges = Helpers.random_graph_gen () in
    let* extra = list_size (int_range 0 6) (pair (int_range 0 12) (int_range 0 12)) in
    return (edges, extra))

let prop_matches_oracle =
  QCheck2.Test.make ~name:"incremental update equals recomputation from scratch" ~count:150
    insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      List.for_all (fun k -> matches_oracle g ~k ~inserted:extra ~deleted:[]) [ 3; 4; 5 ])

let prop_evaluate_is_read_only =
  QCheck2.Test.make ~name:"Score.evaluate leaves ctx.g and ctx.old_truss unchanged" ~count:100
    insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let before = Graph.copy g in
      let ctx = Maxtruss.Score.make_ctx g ~k:4 in
      let truss_before = Helpers.sorted_keys ctx.Maxtruss.Score.old_truss in
      ignore (Maxtruss.Score.evaluate ctx extra);
      Graph.equal ctx.Maxtruss.Score.g before
      && Helpers.sorted_keys ctx.Maxtruss.Score.old_truss = truss_before)

let prop_monotone =
  QCheck2.Test.make ~name:"insertions never shrink the truss" ~count:100 insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let old_truss, d = delta g ~k:4 ~inserted:extra () in
      d.Truss.Maintain.demoted = []
      && List.for_all (fun key -> not (Hashtbl.mem old_truss key)) d.Truss.Maintain.promoted)

(* The overlay carries the batch, so the graph is as it was afterwards. *)
let test_graph_restored () =
  let g = Helpers.triangle () in
  ignore (delta g ~k:4 ~inserted:[ (0, 3); (1, 3); (2, 3) ] ());
  Alcotest.(check int) "inserted edges not left behind" 3 (Graph.num_edges g)

let test_delete_breaks_truss () =
  let g = Helpers.clique 4 in
  let old_truss, d = delta g ~k:4 ~deleted:[ (0, 1) ] () in
  Alcotest.(check int) "whole K4 demoted" 6 (List.length d.Truss.Maintain.demoted);
  Alcotest.(check int) "nothing remains" 0
    (Hashtbl.length old_truss - List.length d.Truss.Maintain.demoted);
  Alcotest.(check int) "graph untouched" 6 (Graph.num_edges g)

let test_delete_outside_truss () =
  let g = Helpers.fig1 () in
  (* (a,h) is a 3-class edge: deleting it cannot touch the 4-truss *)
  Alcotest.(check int) "no demotions" 0 (demoted_count g ~k:4 [ (0, 7) ]);
  Alcotest.(check bool) "graph untouched" true (Graph.mem_edge g 0 7)

let test_delete_absent_edge_ignored () =
  Alcotest.(check int) "nothing happens" 0 (demoted_count (Helpers.clique 4) ~k:4 [ (0, 9) ])

let prop_delete_matches_oracle =
  QCheck2.Test.make ~name:"deletion update equals recomputation from scratch" ~count:150
    insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      (* reuse the extra pairs as deletion requests against existing edges *)
      List.for_all (fun k -> matches_oracle g ~k ~inserted:[] ~deleted:extra) [ 3; 4; 5 ])

let prop_insert_then_delete_roundtrip =
  QCheck2.Test.make ~name:"inserting then deleting the same edges is a no-op on the truss"
    ~count:80 insertion_gen
    (fun (edges, extra) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let k = 4 in
      let t0 = Helpers.oracle_k_truss g ~k in
      let fresh = List.filter (fun (u, v) -> u <> v && not (Graph.mem_edge g u v)) extra in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) fresh;
      let t1, d = delta g ~k ~deleted:fresh () in
      Hashtbl.length t1 - List.length d.Truss.Maintain.demoted = Hashtbl.length t0)

(* --- pure CSR batch maintenance ------------------------------------------- *)

let prop_batch_matches_full_recompute =
  QCheck2.Test.make ~name:"CSR batch update equals full recomputation" ~count:150 Helpers.batch_gen
    (fun (edges, raw_ins, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let csr = Csr.of_graph g in
      let dec = Truss.Decompose.run g in
      let inserted, deleted = Helpers.net_batch g (raw_ins, del_picks) in
      let result =
        Truss.Maintain.batch_update_csr ~csr
          ~tau:(Truss.Decompose.trussness_opt dec)
          ~kmax:(Truss.Decompose.kmax dec) ~inserted ~deleted
      in
      (* apply changes to a copy of the base tau table; oracle = full run *)
      let patched = Truss.Decompose.patched dec ~changes:result.Truss.Maintain.changes in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> ignore (Graph.remove_edge g' u v)) deleted;
      List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) inserted;
      let oracle = Truss.Decompose.run g' in
      let ok = ref (Truss.Decompose.kmax patched = Truss.Decompose.kmax oracle) in
      if Truss.Decompose.num_edges patched <> Truss.Decompose.num_edges oracle then ok := false;
      Truss.Decompose.iter oracle (fun key tau ->
          if Truss.Decompose.trussness_opt patched key <> Some tau then ok := false);
      (* pure: base graph, snapshot and decomposition are untouched *)
      if Truss.Decompose.num_edges dec <> Graph.num_edges g then ok := false;
      !ok)

let test_batch_is_pure () =
  let g = Helpers.two_cliques_shared_edge () in
  let before = Graph.copy g in
  let csr = Csr.of_graph g in
  let dec = Truss.Decompose.run g in
  let kmax0 = Truss.Decompose.kmax dec in
  ignore
    (Truss.Maintain.batch_update_csr ~csr
       ~tau:(Truss.Decompose.trussness_opt dec)
       ~kmax:kmax0
       ~inserted:[ (2, 5); (3, 5) ]
       ~deleted:[ (0, 1) ]);
  Alcotest.(check bool) "graph untouched" true (Graph.equal g before);
  Alcotest.(check int) "decomposition untouched" kmax0 (Truss.Decompose.kmax dec)

let test_batch_empty_is_noop () =
  let g = Helpers.clique 5 in
  let csr = Csr.of_graph g in
  let dec = Truss.Decompose.run g in
  let result =
    Truss.Maintain.batch_update_csr ~csr
      ~tau:(Truss.Decompose.trussness_opt dec)
      ~kmax:(Truss.Decompose.kmax dec) ~inserted:[] ~deleted:[]
  in
  Alcotest.(check int) "no changes" 0 (List.length result.Truss.Maintain.changes);
  Alcotest.(check int) "no region" 0 result.Truss.Maintain.region_edges


(* The same raw batch over the two overlay bases gives identical deltas. *)
let prop_bases_agree =
  QCheck2.Test.make ~name:"Graph and Csr overlay bases give identical deltas" ~count:100
    Helpers.batch_gen
    (fun (edges, raw_ins, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let csr = Csr.of_graph g in
      let deleted = Helpers.picked_edges g del_picks in
      let on_graph = Truss.Maintain.Overlay.of_graph g ~inserted:raw_ins ~deleted in
      let on_csr = Truss.Maintain.Overlay.make ~csr ~inserted:raw_ins ~deleted in
      List.for_all
        (fun k ->
          let old_truss = Helpers.oracle_k_truss g ~k in
          let in_old = Hashtbl.mem old_truss in
          let a = Truss.Maintain.level_delta on_graph ~in_old ~k in
          let b = Truss.Maintain.level_delta on_csr ~in_old ~k in
          sorted a.Truss.Maintain.promoted = sorted b.Truss.Maintain.promoted
          && sorted a.Truss.Maintain.demoted = sorted b.Truss.Maintain.demoted)
        [ 3; 4; 5 ])

let prop_graph_untouched =
  QCheck2.Test.make ~name:"level_delta leaves the base graph untouched" ~count:100 Helpers.batch_gen
    (fun (edges, raw_ins, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let before = Graph.copy g in
      let deleted = Helpers.picked_edges g del_picks in
      ignore (delta g ~k:4 ~inserted:raw_ins ~deleted ());
      Graph.equal g before)

let prop_delete_restores_graph =
  QCheck2.Test.make ~name:"graph restored after deletion evaluation" ~count:100 Helpers.batch_gen
    (fun (edges, _, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let before = Graph.copy g in
      let deleted = Helpers.picked_edges g del_picks in
      List.iter (fun k -> ignore (delta g ~k ~deleted ())) [ 3; 4; 5 ];
      Graph.equal g before)

let prop_batch_matches_oracle =
  QCheck2.Test.make ~name:"mixed batch equals recomputation from scratch" ~count:100 Helpers.batch_gen
    (fun (edges, raw_ins, del_picks) ->
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      let deleted = Helpers.picked_edges g del_picks in
      (* the oracle applies deletions first; keep a pair out of both lists *)
      let inserted =
        List.filter (fun (u, v) -> not (List.mem (u, v) deleted || List.mem (v, u) deleted)) raw_ins
      in
      List.for_all (fun k -> matches_oracle g ~k ~inserted ~deleted) [ 3; 4; 5 ])

let suite =
  [
    Alcotest.test_case "insert completes truss" `Quick test_insert_completes_truss;
    Helpers.qtest prop_batch_matches_full_recompute;
    Alcotest.test_case "batch update is pure" `Quick test_batch_is_pure;
    Alcotest.test_case "empty batch is a no-op" `Quick test_batch_empty_is_noop;
    Alcotest.test_case "delete breaks truss" `Quick test_delete_breaks_truss;
    Alcotest.test_case "delete outside truss" `Quick test_delete_outside_truss;
    Alcotest.test_case "delete absent edge" `Quick test_delete_absent_edge_ignored;
    Helpers.qtest prop_delete_matches_oracle;
    Helpers.qtest prop_delete_restores_graph;
    Helpers.qtest prop_graph_untouched;
    Helpers.qtest prop_insert_then_delete_roundtrip;
    Alcotest.test_case "unnormalised batch acts normalised" `Quick test_unnormalised_batch;
    Alcotest.test_case "graph restored" `Quick test_graph_restored;
    Alcotest.test_case "existing edges ignored" `Quick test_existing_edges_ignored;
    Alcotest.test_case "useless insert" `Quick test_useless_insert;
    Alcotest.test_case "fig1 partial plan scores 5" `Quick test_fig1_partial_plan;
    Alcotest.test_case "fig1 full plan scores 8" `Quick test_fig1_full_plan;
    Helpers.qtest prop_matches_oracle;
    Helpers.qtest prop_evaluate_is_read_only;
    Helpers.qtest prop_monotone;
    Helpers.qtest prop_bases_agree;
    Helpers.qtest prop_batch_matches_oracle;
  ]
