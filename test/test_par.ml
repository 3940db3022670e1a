(* Par: the deterministic fork/join pool — chunk tiling, result ordering,
   exception propagation, nested-region fallback — plus the contracts the
   parallel kernels rely on: bit-identical support/trussness/onion/PCFR
   results at any domain count, exact Obs counters under a 4-domain hammer,
   and the disabled-Obs path staying allocation-free with the pool live. *)

open Graphcore

(* Run [f] under [n] domains, restoring the previous level afterwards so
   the suite's other tests keep whatever MAXTRUSS_DOMAINS selected. *)
let with_domains n f =
  let saved = Par.domains () in
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains saved) f

(* --- chunking --- *)

let tiles_exactly ~chunks ~n =
  let bounds = Par.chunk_bounds ~chunks ~n in
  let ok = ref true in
  let expect_lo = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      if lo <> !expect_lo || hi <= lo then ok := false;
      expect_lo := hi)
    bounds;
  !ok && (if n <= 0 then Array.length bounds = 0 else !expect_lo = n)
  && Array.length bounds <= max 1 chunks

let test_chunk_bounds () =
  Alcotest.(check bool) "3 chunks of 10" true (tiles_exactly ~chunks:3 ~n:10);
  Alcotest.(check bool) "more chunks than items" true (tiles_exactly ~chunks:8 ~n:3);
  Alcotest.(check int) "empty range" 0 (Array.length (Par.chunk_bounds ~chunks:4 ~n:0));
  Alcotest.(check int) "negative n" 0 (Array.length (Par.chunk_bounds ~chunks:4 ~n:(-3)));
  Alcotest.(check (array (pair int int)))
    "single chunk" [| (0, 7) |]
    (Par.chunk_bounds ~chunks:1 ~n:7)

let prop_chunk_bounds_tile =
  QCheck2.Test.make ~name:"chunk_bounds tiles [0, n) in order" ~count:200
    QCheck2.Gen.(pair (int_range 1 16) (int_range 0 200))
    (fun (chunks, n) -> tiles_exactly ~chunks ~n)

(* --- fork/join semantics --- *)

let test_tasks_order () =
  with_domains 4 @@ fun () ->
  let fs = Array.init 23 (fun i () -> (i * 7) + 1) in
  Alcotest.(check (array int))
    "results land at their task index"
    (Array.init 23 (fun i -> (i * 7) + 1))
    (Par.tasks fs)

let test_parallel_map_order () =
  with_domains 4 @@ fun () ->
  let xs = Array.init 17 (fun i -> i) in
  Alcotest.(check (array int))
    "parallel_map preserves order" (Array.map (fun x -> x * x) xs)
    (Par.parallel_map (fun x -> x * x) xs);
  let l = List.init 11 string_of_int in
  Alcotest.(check (list string)) "map_list preserves order" l (Par.map_list Fun.id l)

exception Boom of int

let test_exception_propagation () =
  with_domains 4 @@ fun () ->
  let fs =
    Array.init 8 (fun i () -> if i = 2 || i = 5 then raise (Boom i) else i)
  in
  (match Par.tasks fs with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom i ->
    Alcotest.(check int) "lowest-indexed task's exception wins" 2 i);
  (* the pool survives a raising region *)
  Alcotest.(check (array int)) "pool usable after exception" [| 0; 1; 2 |]
    (Par.tasks (Array.init 3 (fun i () -> i)))

let test_nested_region_falls_back () =
  with_domains 4 @@ fun () ->
  (* inner regions (from workers and from the busy main domain) must degrade
     to sequential execution instead of deadlocking *)
  let results =
    Par.tasks
      (Array.init 6 (fun i () ->
           Array.fold_left ( + ) 0 (Par.tasks (Array.init 5 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (array int))
    "nested results correct"
    (Array.init 6 (fun i -> (50 * i) + 10))
    results

(* --- work stealing and grain-chunked ranges --- *)

let test_steal_tasks_order () =
  with_domains 4 @@ fun () ->
  let fs = Array.init 37 (fun i () -> (i * 3) + 1) in
  Alcotest.(check (array int))
    "results land at their task index"
    (Array.init 37 (fun i -> (i * 3) + 1))
    (Par.steal_tasks fs)

let test_steal_tasks_skewed () =
  with_domains 3 @@ fun () ->
  (* one task dwarfs the rest — the shape stealing exists for; every
     result must still land at its own index *)
  let work n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + (i mod 7)
    done;
    !acc
  in
  let costs = Array.init 24 (fun i -> if i = 1 then 2_000_000 else 1_000) in
  Alcotest.(check (array int))
    "skewed results correct" (Array.map work costs)
    (Par.steal_tasks (Array.map (fun c () -> work c) costs))

let test_steal_tasks_exception () =
  with_domains 4 @@ fun () ->
  (match Par.steal_tasks (Array.init 9 (fun i () -> if i >= 4 then raise (Boom i) else i)) with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom i -> Alcotest.(check int) "lowest-indexed task's exception wins" 4 i);
  Alcotest.(check (array int)) "pool usable after exception" [| 5; 6 |]
    (Par.steal_tasks [| (fun () -> 5); (fun () -> 6) |])

let test_steal_nested_falls_back () =
  with_domains 4 @@ fun () ->
  let results =
    Par.steal_tasks
      (Array.init 6 (fun i () ->
           Array.fold_left ( + ) 0 (Par.steal_tasks (Array.init 5 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (array int))
    "nested results correct"
    (Array.init 6 (fun i -> (50 * i) + 10))
    results

let test_map_range () =
  with_domains 4 @@ fun () ->
  let n = 100_000 in
  let out = Array.make n 0 in
  let chunks =
    Par.map_range ~n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- 3 * i
        done;
        (lo, hi))
  in
  let ok = ref true in
  Array.iteri (fun i v -> if v <> 3 * i then ok := false) out;
  Alcotest.(check bool) "every index written by its chunk" true !ok;
  (* per-chunk results arrive in chunk order and tile [0, n) *)
  let covered = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      if lo <> !covered || hi <= lo then ok := false;
      covered := hi)
    chunks;
  Alcotest.(check bool) "chunk results tile in order" true (!ok && !covered = n);
  Alcotest.(check bool) "range actually split" true (Array.length chunks > 1);
  Alcotest.(check int) "inline below the grain" 1
    (Array.length (Par.map_range ~n:100 (fun lo hi -> hi - lo)))

let test_domains_auto () =
  let saved = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains saved) @@ fun () ->
  Par.set_domains 0;
  let d = Par.domains () in
  Alcotest.(check bool)
    (Printf.sprintf "auto-sized pool in [1, 64] (got %d)" d)
    true
    (d >= 1 && d <= 64)

(* --- sequential/parallel agreement on the truss kernels --- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Edge_key.compare a b)

let kernel_fingerprint g =
  let csr = Csr.of_graph g in
  let sup = Array.to_list (Truss.Support.all_csr csr) in
  let dec = Truss.Decompose.run g in
  let truss = ref [] in
  Truss.Decompose.iter dec (fun key k -> truss := (key, k) :: !truss);
  let truss = List.sort (fun (a, _) (b, _) -> Edge_key.compare a b) !truss in
  let candidates =
    let acc = ref [] in
    Graph.iter_edges g (fun u v -> acc := Edge_key.make u v :: !acc);
    List.sort Edge_key.compare !acc
  in
  let onion = Truss.Onion.peel ~h:g ~k:4 ~candidates () in
  (sup, truss, sorted_bindings onion.Truss.Onion.layer, onion.Truss.Onion.max_layer)

let prop_kernel_agreement =
  QCheck2.Test.make ~name:"support/trussness/onion identical at 1 vs 3/4/5 domains"
    ~count:30
    (Helpers.random_graph_gen ~max_n:14 ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let seq = with_domains 1 @@ fun () -> kernel_fingerprint (Graph.of_edges edges) in
      List.for_all
        (fun d ->
          (with_domains d @@ fun () -> kernel_fingerprint (Graph.of_edges edges)) = seq)
        [ 3; 4; 5 ])

(* Large enough to cross the kernels' sequential cutoff (m >= 4096), so the
   4-domain run genuinely forks. *)
let test_big_graph_agreement () =
  let build () =
    let rng = Rng.create 77 in
    Gen.powerlaw_cluster ~rng ~n:1500 ~m:4 ~p:0.4
  in
  let g = build () in
  Alcotest.(check bool) "fixture crosses the parallel cutoff" true
    (Graph.num_edges g > 4096);
  let seq = with_domains 1 @@ fun () -> kernel_fingerprint (build ()) in
  let par = with_domains 4 @@ fun () -> kernel_fingerprint (build ()) in
  Alcotest.(check bool) "fingerprints identical" true (seq = par)

(* Skewed fixture: heavier per-node attachment and stronger clustering than
   the big-graph fixture, so triangle counts per edge are uneven — the tail
   the work-stealing deques exist for.  Odd domain counts make chunk
   boundaries land differently from the power-of-two runs above. *)
let test_skewed_graph_agreement () =
  let build () =
    let rng = Rng.create 99 in
    Gen.powerlaw_cluster ~rng ~n:900 ~m:8 ~p:0.9
  in
  let g = build () in
  Alcotest.(check bool) "fixture crosses the parallel cutoff" true
    (Graph.num_edges g > 4096);
  let seq = with_domains 1 @@ fun () -> kernel_fingerprint (build ()) in
  List.iter
    (fun d ->
      let par = with_domains d @@ fun () -> kernel_fingerprint (build ()) in
      Alcotest.(check bool)
        (Printf.sprintf "fingerprints identical at %d domains" d)
        true (par = seq))
    [ 3; 5 ]

(* The decompose above must actually run on the pool — its support
   scatter forks: par.tasks counts forked regions, so a zero here means
   the parallel path silently fell back to sequential and the agreement
   tests prove nothing. *)
let test_peel_runs_on_pool () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  with_domains 3 @@ fun () ->
  let rng = Rng.create 7 in
  let g = Gen.powerlaw_cluster ~rng ~n:1500 ~m:4 ~p:0.4 in
  ignore (Truss.Decompose.run g);
  (match List.assoc_opt "par.tasks" (Obs.counters ()) with
  | Some n ->
    Alcotest.(check bool) (Printf.sprintf "par.tasks > 0 (got %d)" n) true (n > 0)
  | None -> Alcotest.fail "par.tasks not registered");
  Alcotest.(check (option int))
    "par.pool_size gauge reflects the pool" (Some 3)
    (match List.assoc_opt "par.pool_size" (Obs.gauges ()) with
    | Some v -> Some (int_of_float v)
    | None -> None)

let outcome_fingerprint (r : Maxtruss.Pcfr.result) =
  ( r.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.score,
    r.Maxtruss.Pcfr.outcome.Maxtruss.Outcome.inserted,
    List.map
      (fun (l : Maxtruss.Pcfr.level_stat) -> (l.h, l.components, l.plans, l.inserted, l.gain))
      r.Maxtruss.Pcfr.levels )

let prop_pcfr_agreement =
  QCheck2.Test.make ~name:"PCFR plans and scores identical at 1 vs 3/4/5 domains"
    ~count:8
    (Helpers.clustered_graph_gen ())
    (fun edges ->
      QCheck2.assume (edges <> []);
      let run () = Maxtruss.Pcfr.pcfr ~seed:11 ~g:(Graph.of_edges edges) ~k:4 ~budget:6 () in
      let seq = with_domains 1 @@ fun () -> outcome_fingerprint (run ()) in
      List.for_all
        (fun d -> (with_domains d @@ fun () -> outcome_fingerprint (run ())) = seq)
        [ 3; 4; 5 ])

(* --- Obs under domains --- *)

let test_counter_hammer () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  with_domains 4 @@ fun () ->
  let c = Obs.Counter.make "par.hammer" in
  let tasks = 8 and per = 50_000 in
  ignore
    (Par.tasks
       (Array.init tasks (fun t () ->
            for i = 1 to per do
              if i land 1 = 0 then Obs.Counter.incr c else Obs.Counter.add c 1
            done;
            t)));
  Alcotest.(check int) "no lost increments across domains" (tasks * per)
    (Obs.Counter.value c);
  Alcotest.(check (option int))
    "registry agrees" (Some (tasks * per))
    (List.assoc_opt "par.hammer" (Obs.counters ()))

let test_disabled_alloc_free_with_pool () =
  Obs.reset ();
  Obs.set_enabled false;
  with_domains 4 @@ fun () ->
  (* spin the pool up so worker domains are parked but alive *)
  ignore (Par.tasks (Array.init 8 (fun i () -> i)));
  let c = Obs.Counter.make "par.disabled" in
  let gauge = Obs.Gauge.make "par.disabled_gauge" in
  let iters = 200_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.Counter.add c 3;
    Obs.Gauge.set gauge 1.5;
    let sp = Obs.Span.enter "par.noop" in
    Obs.Span.exit sp
  done;
  let delta = Gc.minor_words () -. before in
  (* zero words per iteration; the slack only covers the measurement. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled hot path allocates nothing (%.0fw for %d iters)" delta iters)
    true
    (delta < 10_000.);
  Alcotest.(check int) "counter never moved" 0 (Obs.Counter.value c)

let suite =
  [
    Alcotest.test_case "chunk_bounds" `Quick test_chunk_bounds;
    Helpers.qtest prop_chunk_bounds_tile;
    Alcotest.test_case "tasks result order" `Quick test_tasks_order;
    Alcotest.test_case "parallel_map/map_list order" `Quick test_parallel_map_order;
    Alcotest.test_case "4-domain counter hammer" `Quick test_counter_hammer;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested regions fall back" `Quick test_nested_region_falls_back;
    Alcotest.test_case "steal_tasks result order" `Quick test_steal_tasks_order;
    Alcotest.test_case "steal_tasks skewed costs" `Quick test_steal_tasks_skewed;
    Alcotest.test_case "steal_tasks exception propagation" `Quick
      test_steal_tasks_exception;
    Alcotest.test_case "nested steal_tasks fall back" `Quick test_steal_nested_falls_back;
    Alcotest.test_case "map_range tiles and orders chunks" `Quick test_map_range;
    Alcotest.test_case "set_domains 0 auto-sizes" `Quick test_domains_auto;
    Helpers.qtest prop_kernel_agreement;
    Alcotest.test_case "big-graph agreement (1 vs 4 domains)" `Quick
      test_big_graph_agreement;
    Alcotest.test_case "skewed-graph agreement (1 vs 3/5 domains)" `Quick
      test_skewed_graph_agreement;
    Alcotest.test_case "parallel peel forks the pool" `Quick test_peel_runs_on_pool;
    Helpers.qtest prop_pcfr_agreement;
    Alcotest.test_case "disabled obs allocation-free with pool live" `Quick
      test_disabled_alloc_free_with_pool;
  ]
