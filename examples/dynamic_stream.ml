(* Dynamic graph stream: track a k-truss through interleaved edge
   insertions and deletions with the incremental maintenance kernel —
   [Maintain.level_delta] over an overlay of the graph, the same kernel
   truss maximization scores its plans with and the service maintains its
   epochs with — usable on its own for streaming cohesive-subgraph
   monitoring.  Exits 1 when the maintained truss disagrees with a fresh
   decomposition.

     dune exec examples/dynamic_stream.exe *)

open Graphcore

let () =
  let rng = Rng.create 3 in
  let base = Gen.powerlaw_cluster ~rng ~n:300 ~m:5 ~p:0.7 in
  let g = Gen.with_communities ~rng ~base ~communities:8 ~size_min:8 ~size_max:12 ~drop:0.25 in
  let k = 6 in
  let k_truss g = Truss.Decompose.truss_edge_table (Truss.Decompose.run g) k in
  let truss = ref (k_truss g) in
  (* The overlay only reads [g]; the event is applied afterwards. *)
  let delta ~inserted ~deleted =
    let ov = Truss.Maintain.Overlay.of_graph g ~inserted ~deleted in
    Truss.Maintain.level_delta ov ~in_old:(Hashtbl.mem !truss) ~k
  in
  Printf.printf "start: %d edges, %d-truss holds %d of them\n" (Graph.num_edges g) k
    (Hashtbl.length !truss);

  (* A stream of 30 random events: 2/3 insertions near existing wedges,
     1/3 deletions of random edges. *)
  let nodes =
    let acc = ref [] in
    Graph.iter_nodes g (fun v -> acc := v :: !acc);
    Array.of_list !acc
  in
  for step = 1 to 30 do
    if Rng.int rng 3 < 2 then begin
      (* insertion: close a random wedge *)
      let u = Rng.pick rng nodes in
      let nbrs = Array.of_list (Graph.neighbors g u) in
      if Array.length nbrs >= 2 then begin
        let a = Rng.pick rng nbrs and b = Rng.pick rng nbrs in
        if a <> b && not (Graph.mem_edge g a b) then begin
          let { Truss.Maintain.promoted; _ } = delta ~inserted:[ (a, b) ] ~deleted:[] in
          ignore (Graph.add_edge g a b);
          List.iter (fun e -> Hashtbl.replace !truss e ()) promoted;
          if promoted <> [] then
            Printf.printf "step %2d: +(%d,%d) promoted %d edges (truss: %d)\n" step a b
              (List.length promoted) (Hashtbl.length !truss)
        end
      end
    end
    else begin
      (* deletion of a random truss edge: watch the cascade *)
      let keys =
        Hashtbl.fold (fun key () acc -> key :: acc) !truss [] |> List.sort Edge_key.compare
      in
      if keys <> [] then begin
        let key = List.nth keys (Rng.int rng (List.length keys)) in
        let u, v = Edge_key.endpoints key in
        let { Truss.Maintain.demoted; _ } = delta ~inserted:[] ~deleted:[ (u, v) ] in
        ignore (Graph.remove_edge g u v);
        List.iter (fun e -> Hashtbl.remove !truss e) demoted;
        Printf.printf "step %2d: -(%d,%d) demoted %d edges (truss: %d)\n" step u v
          (List.length demoted) (Hashtbl.length !truss)
      end
    end
  done;

  (* Cross-check the maintained truss against recomputation. *)
  let fresh = k_truss g in
  let consistent =
    Hashtbl.length !truss = Hashtbl.length fresh
    && Hashtbl.fold (fun key () ok -> ok && Hashtbl.mem fresh key) !truss true
  in
  Printf.printf "\nfinal: maintained truss %d edges, recomputed %d edges -> %s\n"
    (Hashtbl.length !truss) (Hashtbl.length fresh)
    (if consistent then "consistent" else "MISMATCH");
  if not consistent then exit 1
