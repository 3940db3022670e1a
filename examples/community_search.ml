(* Community search + reinforcement: find a user's k-truss community, then
   spend a small budget making it larger.

   This chains the two public APIs the paper's motivation connects: truss
   community search (SIGMOD'14) answers "who is in my strongest circle?",
   truss maximization answers "which introductions grow that circle?".

     dune exec examples/community_search.exe *)

open Graphcore

let () =
  let rng = Rng.create 7 in
  let base = Gen.powerlaw_cluster ~rng ~n:500 ~m:5 ~p:0.7 in
  let g = Gen.with_communities ~rng ~base ~communities:12 ~size_min:9 ~size_max:14 ~drop:0.3 in
  Printf.printf "network: %d users, %d friendships\n" (Graph.num_nodes g) (Graph.num_edges g);

  (* pick a well-connected query user *)
  let query = ref 0 in
  Graph.iter_nodes g (fun v -> if Graph.degree g v > Graph.degree g !query then query := v);
  let query = !query in
  let deepest = Truss.Community.max_k g ~query in
  Printf.printf "user %d (degree %d) reaches the %d-truss at its deepest\n" query
    (Graph.degree g query) deepest;

  let k = max 4 (deepest - 1) in
  let comms = Truss.Community.communities g ~query ~k in
  Printf.printf "%d-truss communities of user %d: %s\n" k query
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "%d edges" (List.length c)) comms));

  let truss_size g = List.length (Truss.Decompose.truss_edges (Truss.Decompose.run g) k) in
  let before = truss_size g in
  let budget = 10 in
  let result = Maxtruss.Pcfr.pcfr ~g ~k ~budget () in
  let o = result.Maxtruss.Pcfr.outcome in
  Printf.printf "\nreinforcing with %d introductions grows the %d-truss by %d edges\n"
    (List.length o.Maxtruss.Outcome.inserted) k o.Maxtruss.Outcome.score;

  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) o.Maxtruss.Outcome.inserted;
  let comms' = Truss.Community.communities g ~query ~k in
  Printf.printf "user %d's communities afterwards: %s (truss %d -> %d edges)\n" query
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "%d edges" (List.length c)) comms'))
    before
    (truss_size g)
