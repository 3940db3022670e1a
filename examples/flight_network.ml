(* Flight-network scenario (the paper's airline motivation):

   The k-truss of a flight network is (k-1)-edge-connected: the core keeps
   operating even if any k-2 routes are cancelled.  An airline can open a
   limited number of new routes and wants to maximize the number of routes
   protected by that guarantee.

     dune exec examples/flight_network.exe *)

open Graphcore

(* A few dense regional clusters (hub airports + satellites) loosely tied
   together by long-haul routes. *)
let build_network () =
  let rng = Rng.create 99 in
  let g = Graph.create () in
  let regions = 6 and region_size = 22 in
  for r = 0 to regions - 1 do
    let base = r * region_size in
    let members = Array.init region_size (fun i -> base + i) in
    (* each region is a noisy near-clique around its hub *)
    Gen.planted_noisy_clique ~rng ~g ~members ~drop:0.45;
    (* hub-and-spoke inside the region *)
    for i = 1 to region_size - 1 do
      ignore (Graph.add_edge g base (base + i))
    done
  done;
  (* long-haul routes between hubs *)
  for a = 0 to regions - 1 do
    for b = a + 1 to regions - 1 do
      ignore (Graph.add_edge g (a * region_size) (b * region_size));
      if Rng.float rng < 0.5 then
        ignore (Graph.add_edge g ((a * region_size) + 1) ((b * region_size) + 2))
    done
  done;
  g

let () =
  let g = build_network () in
  Printf.printf "flight network: %d airports, %d routes\n" (Graph.num_nodes g)
    (Graph.num_edges g);

  let k = 8 in
  let truss_size g = List.length (Truss.Decompose.truss_edges (Truss.Decompose.run g) k) in
  let resilient = truss_size g in
  Printf.printf "routes surviving any %d simultaneous cancellations (%d-truss): %d\n" (k - 2) k
    resilient;

  let budget = 12 in
  let result = Maxtruss.Pcfr.pcfr ~g ~k ~budget () in
  let outcome = result.Maxtruss.Pcfr.outcome in
  Printf.printf "\nopening %d new routes:\n" (List.length outcome.Maxtruss.Outcome.inserted);
  List.iter
    (fun (u, v) -> Printf.printf "  new route: airport %d <-> airport %d\n" u v)
    outcome.Maxtruss.Outcome.inserted;
  Printf.printf "newly protected routes: %d\n" outcome.Maxtruss.Outcome.score;

  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) outcome.Maxtruss.Outcome.inserted;
  Printf.printf "resilient core after expansion: %d routes\n"
    (truss_size g);

  (* Per-level detail: how deep did the planner have to go? *)
  List.iter
    (fun (l : Maxtruss.Pcfr.level_stat) ->
      Printf.printf "  level h=%d: %d candidate groups, %d routes opened, %d protected\n"
        l.Maxtruss.Pcfr.h l.Maxtruss.Pcfr.components l.Maxtruss.Pcfr.inserted
        l.Maxtruss.Pcfr.gain)
    result.Maxtruss.Pcfr.levels
