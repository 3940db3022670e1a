open Graphcore
open Maxtruss

(* End-to-end runs on a mid-sized generated social graph, checking the
   cross-algorithm invariants the paper's evaluation relies on. *)

let graph () =
  let rng = Rng.create 55 in
  let base = Gen.powerlaw_cluster ~rng ~n:400 ~m:6 ~p:0.65 in
  Gen.with_communities ~rng ~base ~communities:14 ~size_min:9 ~size_max:14 ~drop:0.3

let k = 7

let test_all_algorithms_verified () =
  let g = graph () in
  let budget = 40 in
  let outcomes =
    [
      ("RD", Baselines.rd ~rng:(Rng.create 1) ~g ~k ~budget);
      ("CBTM", Baselines.cbtm ~g ~k ~budget);
      ("PCFR", (Pcfr.pcfr ~g ~k ~budget ()).Pcfr.outcome);
    ]
  in
  List.iter
    (fun (name, (o : Outcome.t)) ->
      Alcotest.(check bool) (name ^ " budget") true (List.length o.inserted <= budget);
      Alcotest.(check int)
        (name ^ " score verified")
        (Score.evaluate_oracle g ~k ~inserted:o.inserted)
        o.score;
      List.iter
        (fun (u, v) ->
          if Graph.mem_edge g u v then Alcotest.failf "%s inserted existing edge" name)
        o.inserted)
    outcomes

let test_pcfr_dominates () =
  let g = graph () in
  let budget = 40 in
  let cbtm = Baselines.cbtm ~g ~k ~budget in
  let rd = Baselines.rd ~rng:(Rng.create 2) ~g ~k ~budget in
  let pcfr = Pcfr.pcfr ~g ~k ~budget () in
  Alcotest.(check bool) "PCFR >= CBTM" true (pcfr.Pcfr.outcome.Outcome.score >= cbtm.Outcome.score);
  Alcotest.(check bool) "PCFR >= RD" true (pcfr.Pcfr.outcome.Outcome.score >= rd.Outcome.score);
  Alcotest.(check bool) "PCFR strictly positive" true (pcfr.Pcfr.outcome.Outcome.score > 0)

let test_score_monotone_in_budget () =
  let g = graph () in
  let s10 = (Pcfr.pcfr ~g ~k ~budget:10 ()).Pcfr.outcome.Outcome.score in
  let s40 = (Pcfr.pcfr ~g ~k ~budget:40 ()).Pcfr.outcome.Outcome.score in
  let s160 = (Pcfr.pcfr ~g ~k ~budget:160 ()).Pcfr.outcome.Outcome.score in
  Alcotest.(check bool) "10 <= 40" true (s10 <= s40);
  Alcotest.(check bool) "40 <= 160" true (s40 <= s160)

let test_applying_plan_grows_truss () =
  let g = graph () in
  let truss_size g = List.length (Truss.Decompose.truss_edges (Truss.Decompose.run g) k) in
  let before = truss_size g in
  let r = Pcfr.pcfr ~g ~k ~budget:40 () in
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> ignore (Graph.add_edge g' u v)) r.Pcfr.outcome.Outcome.inserted;
  let after = truss_size g' in
  Alcotest.(check int) "growth equals score" r.Pcfr.outcome.Outcome.score (after - before)

let test_dp_variants_agree_on_real_menus () =
  (* Build real menus through the PCFR machinery and compare the DPs. *)
  let g = graph () in
  let dec = Truss.Decompose.run g in
  let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
  let ctx = Score.make_ctx g ~k in
  let config = Pcfr.default_config ~k ~budget:60 in
  let rng = Rng.create 11 in
  let revenues =
    List.map
      (fun component ->
        Pcfr.component_revenue ~rng ~ctx ~dec ~config ~budget:60 ~component)
      comps
    |> Array.of_list
  in
  let seq = Dp.sequential ~revenues ~budget:60 in
  let srt = Dp.sorted ~revenues ~budget:60 in
  let bin = Dp.binary ~revenues ~budget:60 in
  Alcotest.(check bool) "sorted <= sequential" true (srt.Dp.total_score <= seq.Dp.total_score);
  Alcotest.(check bool) "binary <= sequential" true (bin.Dp.total_score <= seq.Dp.total_score);
  Alcotest.(check bool) "sorted near-exact" true (5 * srt.Dp.total_score >= 4 * seq.Dp.total_score);
  Alcotest.(check bool) "all feasible" true
    (Dp.feasible ~revenues ~budget:60 seq
    && Dp.feasible ~revenues ~budget:60 srt
    && Dp.feasible ~revenues ~budget:60 bin)

let suite =
  [
    Alcotest.test_case "all algorithms verified" `Slow test_all_algorithms_verified;
    Alcotest.test_case "PCFR dominates" `Slow test_pcfr_dominates;
    Alcotest.test_case "monotone in budget" `Slow test_score_monotone_in_budget;
    Alcotest.test_case "applying plan grows truss" `Slow test_applying_plan_grows_truss;
    Alcotest.test_case "DP variants on real menus" `Slow test_dp_variants_agree_on_real_menus;
  ]
