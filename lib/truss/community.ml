open Graphcore

let communities g ~query ~k =
  let truss = Decompose.truss_edge_table (Decompose.run g) k in
  (* Seed edges: the query's incident truss edges. *)
  let seeds = ref [] in
  Graph.iter_neighbors g query (fun w ->
      let key = Edge_key.make query w in
      if Hashtbl.mem truss key then seeds := key :: !seeds);
  let visited = Hashtbl.create 64 in
  let expand seed =
    if Hashtbl.mem visited seed then None
    else begin
      let comp = ref [] in
      let queue = Queue.create () in
      Queue.push seed queue;
      Hashtbl.replace visited seed ();
      while not (Queue.is_empty queue) do
        let key = Queue.pop queue in
        comp := key :: !comp;
        let u, v = Edge_key.endpoints key in
        Graph.iter_common_neighbors g u v (fun w ->
            let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
            (* triangle connectivity inside the k-truss *)
            if Hashtbl.mem truss e1 && Hashtbl.mem truss e2 then begin
              if not (Hashtbl.mem visited e1) then begin
                Hashtbl.replace visited e1 ();
                Queue.push e1 queue
              end;
              if not (Hashtbl.mem visited e2) then begin
                Hashtbl.replace visited e2 ();
                Queue.push e2 queue
              end
            end)
      done;
      Some (List.sort Edge_key.compare !comp)
    end
  in
  List.filter_map expand (List.sort Edge_key.compare !seeds)

let community_graph g ~query ~k =
  let out = Graph.create () in
  List.iter
    (List.iter (fun key ->
         let u, v = Edge_key.endpoints key in
         ignore (Graph.add_edge out u v)))
    (communities g ~query ~k);
  out

let max_k g ~query =
  let dec = Decompose.run g in
  Graph.fold_neighbors g query
    (fun acc w ->
      match Decompose.trussness_opt dec (Edge_key.make query w) with
      | Some t -> max acc t
      | None -> acc)
    0
