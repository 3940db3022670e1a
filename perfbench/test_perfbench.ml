(* The benchmark's own tests: the tail-percentile rule, the correctness
   checks, replay fidelity on the small gowalla-sample graph, and the
   agreement between the reports and BENCHMARK.json. *)

open Perfbench

let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))

(* {2 Tail rule} *)

let test_beyond () =
  check_int "p99 of 1000 leaves 10" 10 (Stats.beyond ~permille:990 1000);
  check_int "p90 of 100 leaves 10" 10 (Stats.beyond ~permille:900 100);
  check_int "p99.9 of 10000 leaves 10" 10 (Stats.beyond ~permille:999 10000)

let test_tail_rule () =
  check_opt "1000 samples -> p99" (Some 990) (Stats.tail_permille 1000);
  check_opt "999 samples -> p95" (Some 950) (Stats.tail_permille 999);
  check_opt "10000 samples -> p99.9" (Some 999) (Stats.tail_permille 10000);
  check_opt "100 samples -> p90" (Some 900) (Stats.tail_permille 100);
  check_opt "99 samples -> p80" (Some 800) (Stats.tail_permille 99);
  check_opt "20 samples -> p50" (Some 500) (Stats.tail_permille 20);
  check_opt "19 samples -> none" None (Stats.tail_permille 19);
  (* Every level the rule picks has at least ten samples beyond it, and
     the next level up has fewer. *)
  for n = 20 to 3000 do
    match Stats.tail_permille n with
    | None -> Alcotest.fail "no tail level"
    | Some p ->
      if Stats.beyond ~permille:p n < 10 then Alcotest.failf "n=%d: fewer than ten beyond" n;
      List.iter
        (fun q ->
          if q > p && Stats.beyond ~permille:q n >= 10 then
            Alcotest.failf "n=%d: p%d not highest" n p)
        Stats.ladder
  done

let test_min_samples () =
  check_int "p99" 1000 (Stats.min_samples ~permille:990);
  check_int "p90" 100 (Stats.min_samples ~permille:900);
  List.iter
    (fun p ->
      let n = Stats.min_samples ~permille:p in
      check_opt (Printf.sprintf "rule picks p%d at its minimum" p) (Some p) (Stats.tail_permille n))
    Stats.ladder

(* A publish window gives each declared tail its ten samples beyond, and
   the rule picks exactly the declared level. *)
let test_declared_tails () =
  let mix = Publish_wl.mix ~k:Workloads.publish_k in
  let rounds = Workloads.publish_window mix in
  check_opt "publish tail" (Some Workloads.publish_tail_permille) (Stats.tail_permille rounds);
  check_opt "read tail" (Some Workloads.read_tail_permille)
    (Stats.tail_permille (rounds * Publish_wl.reads_per_round mix))

let test_percentile () =
  let xs = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Stats.percentile ~permille:990 xs);
  Alcotest.(check (float 0.)) "p50 of 1..1000" 500. (Stats.percentile ~permille:500 xs);
  Alcotest.(check (float 0.)) "median of 1..1000" 500.5 (Stats.median xs);
  Alcotest.(check (float 0.)) "median of 3" 2. (Stats.median [ 3.; 1.; 2. ])

(* {2 Maximize on gowalla-sample} *)

let sample = lazy (Workloads.dataset "gowalla-sample")
let spec = Workloads.maximize_probe

let test_maximize_check () =
  let g = Lazy.force sample in
  let k = spec.Workloads.m_k and budget = spec.Workloads.m_budget in
  let before = Maximize_wl.truss_before ~g ~k in
  let sol = Maximize_wl.solve ~seed:3 ~g ~k ~budget in
  Alcotest.(check bool) "a real solve passes" true (Maximize_wl.check ~g ~before ~k ~budget sol);
  let wrong = { sol with Maximize_wl.score = sol.Maximize_wl.score + 1 } in
  Alcotest.(check bool) "a wrong score fails" false (Maximize_wl.check ~g ~before ~k ~budget wrong);
  (match sol.Maximize_wl.inserted with
  | e :: _ ->
    let dup = { sol with Maximize_wl.inserted = e :: sol.Maximize_wl.inserted } in
    Alcotest.(check bool)
      "a repeated edge fails" false
      (Maximize_wl.check ~g ~before ~k ~budget dup)
  | [] -> Alcotest.fail "the solve inserted nothing");
  Alcotest.(check bool) "over budget fails" false
    (Maximize_wl.check ~g ~before ~k ~budget:(List.length sol.Maximize_wl.inserted - 1) sol)

let test_maximize_replay () =
  let g = Lazy.force sample in
  let k = spec.Workloads.m_k and budget = spec.Workloads.m_budget in
  List.iter
    (fun seed ->
      let layers = Layers.create () and counts = Maximize_wl.new_counts () in
      let expected = Maximize_wl.solve ~seed ~g ~k ~budget in
      let replayed = Maximize_wl.replay layers counts ~seed ~g ~k ~budget in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d replays exactly" seed)
        true
        (Maximize_wl.fidelity ~expected ~replayed);
      if Layers.calls layers "convert.convert" = 0 then Alcotest.fail "no conversion attributed";
      if Layers.total_s layers <= 0. then Alcotest.fail "no time attributed")
    [ 1; 2; 42 ]

(* Descending past h = 1 exercises the general components and the
   Sequential DP; the replay must follow there too. *)
let test_maximize_replay_deep () =
  let g = Lazy.force sample in
  let k = spec.Workloads.m_k and budget = 60 in
  let layers = Layers.create () and counts = Maximize_wl.new_counts () in
  let expected = Maximize_wl.solve ~seed:5 ~g ~k ~budget in
  let replayed = Maximize_wl.replay layers counts ~seed:5 ~g ~k ~budget in
  Alcotest.(check bool) "replays exactly" true (Maximize_wl.fidelity ~expected ~replayed);
  Alcotest.(check bool) "descends past h = 1" true (Layers.calls layers "truss.decompose" > 1)

(* {2 Publish on gowalla-sample} *)

let test_publish_replay () =
  let g = Lazy.force sample in
  let k = Workloads.probe_k in
  let store_a = Workloads.publish_store g and store_b = Workloads.publish_store g in
  let m = Publish_wl.mirror_of g in
  let layers = Layers.create () in
  let t = Publish_wl.run_traced layers ~seed:7 ~store_a ~store_b ~m ~k ~seconds:0.3 in
  check_int "no failed request" 0 t.Publish_wl.t_failed;
  if t.Publish_wl.t_rounds < 2 then Alcotest.fail "too few rounds";
  check_int "one maintenance pass per round" t.Publish_wl.t_rounds
    (Layers.calls layers "maintain.batch_update")

let test_publish_oracle () =
  let g = Lazy.force sample in
  let k = Workloads.probe_k in
  let session = Workloads.publish_session ~g ~k ~seed:11 in
  Publish_wl.run session ~seconds:0. ~min_windows:1;
  let l = Publish_wl.finish session in
  check_int "no failed request" 0 l.Publish_wl.failed;
  check_int "one window" 1 (List.length l.Publish_wl.publish_s);
  check_int "requests" (l.Publish_wl.rounds * (1 + Publish_wl.reads_per_round (Publish_wl.mix ~k)))
    l.Publish_wl.requests;
  (* A corrupted recorded reply is caught by the oracle. *)
  let store = Workloads.publish_store g and m = Publish_wl.mirror_of g in
  let rng = Graphcore.Rng.create 3 in
  let round = Publish_wl.gen_round rng m (Publish_wl.mix ~k) in
  let _, recorded, _ =
    Publish_wl.untraced_round store round ~on_publish:ignore ~on_read:(fun _ _ -> ())
  in
  check_int "clean round" 0 (Publish_wl.verify ~k ~m (Service.Store.current store) recorded);
  let corrupted = List.map (fun (line, r) -> (line, r ^ " ")) recorded in
  check_int "every corrupted reply caught" (List.length recorded)
    (Publish_wl.verify ~k ~m (Service.Store.current store) corrupted)

(* {2 Reports against BENCHMARK.json} *)

let benchmark_names key =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json_min.parse text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok json ->
    Option.get (Option.bind (Json_min.member key json) Json_min.to_arr)
    |> List.map (fun m ->
           ( Option.get (Option.bind (Json_min.member "name" m) Json_min.to_str),
             Option.get (Option.bind (Json_min.member "unit" m) Json_min.to_str) ))

let names_of (r : Workloads.report) =
  List.map (fun (m : Workloads.metric) -> (m.Workloads.name, m.Workloads.unit_)) r.Workloads.metrics

let sorted = List.sort compare

let test_per_layer_names () =
  let maximize =
    Workloads.maximize_layer_metrics (Layers.create ()) (Maximize_wl.new_counts ()) ~replays:0
  and publish = Workloads.publish_layer_metrics (Layers.create ()) ~levels:[] ~region_edges:[]
  and coverage =
    Workloads.coverage_metrics (Layers.create ()) ~units:0 ~traced_wall:0. ~untraced_wall:0.
  in
  let report =
    {
      Workloads.correct = true;
      attempted = 1;
      failed = 0;
      metrics = maximize @ publish @ coverage;
      notes = [];
    }
  in
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted (benchmark_names "per_layer")) (sorted (names_of report))

let test_end_to_end_names () =
  let g = Lazy.force sample in
  let session = Workloads.publish_session ~g ~k:Workloads.probe_k ~seed:1 in
  Publish_wl.run session ~seconds:0. ~min_windows:1;
  let solver = Workloads.solver Workloads.maximize_probe ~g ~seed:1 in
  Workloads.solve_next solver;
  let metrics =
    (Workloads.setup_metric 1. :: Workloads.solve_metrics ~score_seeds:1 solver)
    @ Workloads.publish_metrics (Publish_wl.finish session)
    @ [ Workloads.peak_heap_mb () ]
  in
  let report = { Workloads.correct = true; attempted = 1; failed = 0; metrics; notes = [] } in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted (benchmark_names "end_to_end")) (sorted (names_of report));
  List.iter
    (fun (m : Workloads.metric) ->
      if not (m.Workloads.value > 0.) then Alcotest.failf "%s is not positive" m.Workloads.name)
    metrics

let test_result_json () =
  let r =
    {
      Workloads.correct = false;
      attempted = 3;
      failed = 1;
      metrics = [ { Workloads.name = "solve_s"; unit_ = "s"; value = 1.25 } ];
      notes = [ ("seed", "1") ];
    }
  in
  Alcotest.(check string)
    "result line"
    ("{\"correct\":false,\"attempted\":3,\"failed\":1,"
   ^ "\"metrics\":{\"solve_s\":{\"value\":1.25,\"unit\":\"s\"}}}")
    (Report.result_json r)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond;
          Alcotest.test_case "tail rule: ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "minimum samples per level" `Quick test_min_samples;
          Alcotest.test_case "declared tails hold per window" `Quick test_declared_tails;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
        ] );
      ( "maximize",
        [
          Alcotest.test_case "independent recount" `Quick test_maximize_check;
          Alcotest.test_case "replay fidelity on gowalla-sample" `Quick test_maximize_replay;
          Alcotest.test_case "replay fidelity past h = 1" `Quick test_maximize_replay_deep;
        ] );
      ( "publish",
        [
          Alcotest.test_case "replay fidelity on gowalla-sample" `Quick test_publish_replay;
          Alcotest.test_case "from-scratch oracle" `Quick test_publish_oracle;
        ] );
      ( "report",
        [
          Alcotest.test_case "per-layer names match BENCHMARK.json" `Quick test_per_layer_names;
          Alcotest.test_case "end-to-end names match BENCHMARK.json" `Quick test_end_to_end_names;
          Alcotest.test_case "result line" `Quick test_result_json;
        ] );
    ]
