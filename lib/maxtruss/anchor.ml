open Graphcore

let anchored_k_truss g ~k ~anchors =
  let anchored = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace anchored v ()) anchors;
  let exempt key =
    let u, v = Edge_key.endpoints key in
    Hashtbl.mem anchored u || Hashtbl.mem anchored v
  in
  let work = Graph.copy g in
  let threshold = k - 2 in
  let sup = Truss.Support.all work in
  let queue = Queue.create () in
  Hashtbl.iter (fun key s -> if s < threshold && not (exempt key) then Queue.push key queue) sup;
  let removed = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    if (not (Hashtbl.mem removed key)) && Hashtbl.mem sup key then begin
      Hashtbl.replace removed key ();
      let u, v = Edge_key.endpoints key in
      Graph.iter_common_neighbors work u v (fun w ->
          let decr e =
            match Hashtbl.find_opt sup e with
            | Some s when not (Hashtbl.mem removed e) ->
              Hashtbl.replace sup e (s - 1);
              if s - 1 < threshold && not (exempt e) then Queue.push e queue
            | _ -> ()
          in
          decr (Edge_key.make u w);
          decr (Edge_key.make v w));
      ignore (Graph.remove_edge work u v)
    end
  done;
  let result = Hashtbl.create 256 in
  Graph.iter_edges work (fun u v -> Hashtbl.replace result (Edge_key.make u v) ());
  result

type result = { anchors : int list; followers : int; time_s : float }

let greedy ~g ~k ~budget ?(max_candidates = 400) () =
  let t0 = Unix.gettimeofday () in
  let dec = Truss.Decompose.run g in
  let base = List.length (Truss.Decompose.truss_edges dec k) in
  (* Candidates: nodes touching the (k-1)-class, by incident class degree. *)
  let weight = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      let bump x =
        Hashtbl.replace weight x (1 + try Hashtbl.find weight x with Not_found -> 0)
      in
      bump u;
      bump v)
    (Truss.Decompose.k_class dec (k - 1));
  let candidates =
    Hashtbl.fold (fun v w acc -> (w, v) :: acc) weight []
    |> List.sort (fun (w1, v1) (w2, v2) ->
           match Int.compare w2 w1 with 0 -> Int.compare v1 v2 | c -> c)
    |> List.filteri (fun i _ -> i < max_candidates)
    |> List.map snd
  in
  let gain_of chosen v =
    Hashtbl.length (anchored_k_truss g ~k ~anchors:(v :: chosen)) - base
  in
  (* Lazy greedy over stale gains. *)
  let cmp (g1, v1) (g2, v2) =
    match Int.compare g2 g1 with 0 -> Int.compare v1 v2 | c -> c
  in
  let heap = Min_heap.create ~cmp in
  List.iter (fun v -> Min_heap.push heap (gain_of [] v, v)) candidates;
  let chosen = ref [] in
  let current = ref 0 in
  let continue = ref true in
  while !continue && List.length !chosen < budget do
    match Min_heap.pop heap with
    | None -> continue := false
    | Some (_, v) when List.mem v !chosen -> ()
    | Some (stale, v) ->
      let fresh = gain_of !chosen v - !current in
      let next = match Min_heap.peek heap with Some (ng, _) -> ng | None -> min_int in
      if fresh >= next || fresh >= stale then begin
        if fresh > 0 then begin
          chosen := v :: !chosen;
          current := !current + fresh
        end
        else continue := false (* best candidate gains nothing; stop *)
      end
      else Min_heap.push heap (fresh, v)
  done;
  {
    anchors = List.rev !chosen;
    followers = !current;
    time_s = Unix.gettimeofday () -. t0;
  }
