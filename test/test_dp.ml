open Graphcore
open Maxtruss

let mk_pair cost score =
  let inserted = List.init cost (fun i -> Edge_key.make (1000 + i) (2000 + i)) in
  { Plan.inserted; cost; score }

(* Example 5 of the paper: S_A = [3], S_B = [2,4], S_C = [4,5,6], b = 5. *)
let example5 () =
  [|
    Plan.normalize [ mk_pair 1 3 ];
    Plan.normalize [ mk_pair 1 2; mk_pair 2 4 ];
    Plan.normalize [ mk_pair 1 4; mk_pair 2 5; mk_pair 3 6 ];
  |]

let test_example5_sequential () =
  let revenues = example5 () in
  (* Table I, last row: budgets 1..5 give 4, 7, 9, 11, 12 — from the
     production entry point too, on both sides of b = |C| = 3. *)
  List.iter
    (fun (b, expected) ->
      Alcotest.(check int) (Printf.sprintf "Table I score at b=%d" b) expected
        (Dp.sequential ~revenues ~budget:b).Dp.total_score;
      Alcotest.(check int) (Printf.sprintf "Dp.solve score at b=%d" b) expected
        (Dp.solve ~revenues ~budget:b).Dp.total_score)
    [ (0, 0); (1, 4); (2, 7); (3, 9); (4, 11); (5, 12) ]

let test_example5_sequential_allocation () =
  let alloc = Dp.sequential ~revenues:(example5 ()) ~budget:5 in
  let costs = List.sort compare (List.map (fun (c, (p : Plan.pair)) -> (c, p.cost)) alloc.Dp.chosen) in
  Alcotest.(check (list (pair int int))) "x = [1;2;2]" [ (0, 1); (1, 2); (2, 2) ] costs

let test_example5_binary () =
  (* With full-conversion-only menus the best is x = [0;2;3] scoring 10. *)
  let alloc = Dp.binary ~revenues:(example5 ()) ~budget:5 in
  Alcotest.(check int) "binary DP score" 10 alloc.Dp.total_score

let test_example5_sorted () =
  let revenues = example5 () in
  (* Table II, last row: budgets 1..5 give 4, 7, 9, 11, 12. *)
  List.iter
    (fun (b, expected) ->
      let alloc = Dp.sorted ~revenues ~budget:b in
      Alcotest.(check int) (Printf.sprintf "Table II score at b=%d" b) expected
        alloc.Dp.total_score)
    [ (1, 4); (2, 7); (3, 9); (4, 11); (5, 12) ]

let test_empty_inputs () =
  let alloc = Dp.sequential ~revenues:[||] ~budget:10 in
  Alcotest.(check int) "no components" 0 alloc.Dp.total_score;
  let alloc = Dp.sequential ~revenues:(example5 ()) ~budget:0 in
  Alcotest.(check int) "no budget" 0 alloc.Dp.total_score;
  let alloc = Dp.sorted ~revenues:[| []; [] |] ~budget:5 in
  Alcotest.(check int) "empty menus" 0 alloc.Dp.total_score

let test_feasible_check () =
  let revenues = example5 () in
  let alloc = Dp.sequential ~revenues ~budget:5 in
  Alcotest.(check bool) "sequential feasible" true (Dp.feasible ~revenues ~budget:5 alloc);
  Alcotest.(check bool) "budget violation detected" false
    (Dp.feasible ~revenues ~budget:3 alloc)

let revenue_gen =
  QCheck2.Gen.(
    let menu =
      QCheck2.Gen.map
        (fun pairs -> Plan.normalize (List.map (fun (c, s) -> mk_pair c s) pairs))
        (list_size (int_range 0 4) (QCheck2.Gen.pair (int_range 1 6) (int_range 1 15)))
    in
    let* n = int_range 0 5 in
    let* menus = list_repeat n menu in
    let* budget = int_range 0 12 in
    return (Array.of_list menus, budget))

(* Components with a cheap low plan and a dear high one, and a budget one
   upgrade short of taking every dear plan.  The optimum then often takes
   one component's cheap plan; Sorted DP keeps one solution per cell, and a
   cell that already spent that component on its dear plan blocks it, so
   Sorted misses the optimum on ~2% of these instances.  Random menus
   rarely show this, with more components than budget or not. *)
let blocking_revenue_gen =
  QCheck2.Gen.(
    let* menus =
      list_size (int_range 4 6)
        (triple (int_range 1 3) (int_range 2 3) (int_range 8 12))
    in
    let* short = int_range 0 (List.length menus - 1) in
    let budget =
      List.fold_left (fun acc (_, dear, _) -> acc + dear) 0 menus
      - (let _, dear, _ = List.nth menus short in dear - 1)
    in
    return
      ( Array.of_list
          (List.map (fun (low, dear, high) -> Plan.normalize [ mk_pair 1 low; mk_pair dear high ]) menus),
        budget ))

let exact_gen = QCheck2.Gen.oneof [ revenue_gen; blocking_revenue_gen ]

let print_instance (revenues, budget) =
  Format.asprintf "budget %d, menus %a" budget
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Plan.pp)
    revenues

(* The production entry point is exact at every budget, below the
   component count included. *)
let prop_solve_optimal =
  QCheck2.Test.make ~name:"Dp.solve matches brute force" ~count:600
    ~print:print_instance exact_gen
    (fun (revenues, budget) ->
      let alloc = Dp.solve ~revenues ~budget in
      Dp.feasible ~revenues ~budget alloc
      && alloc.Dp.total_score = (Dp.brute_force ~revenues ~budget).Dp.total_score)

let prop_sequential_optimal =
  QCheck2.Test.make ~name:"sequential DP matches brute force" ~count:600
    ~print:print_instance exact_gen
    (fun (revenues, budget) ->
      (Dp.sequential ~revenues ~budget).Dp.total_score
      = (Dp.brute_force ~revenues ~budget).Dp.total_score)

let prop_literal_matches_sequential =
  QCheck2.Test.make ~name:"Algorithm 3 as printed matches the optimized variant" ~count:200
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      let lit = Dp.sequential_literal ~revenues ~budget in
      Dp.feasible ~revenues ~budget lit
      && lit.Dp.total_score = (Dp.sequential ~revenues ~budget).Dp.total_score)

let prop_sequential_feasible =
  QCheck2.Test.make ~name:"sequential allocation is feasible" ~count:300
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      Dp.feasible ~revenues ~budget (Dp.sequential ~revenues ~budget))

let prop_sorted_feasible_and_bounded =
  QCheck2.Test.make ~name:"sorted DP is feasible and bounded by the optimum" ~count:300
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      let sorted = Dp.sorted ~revenues ~budget in
      Dp.feasible ~revenues ~budget sorted
      && sorted.Dp.total_score <= (Dp.sequential ~revenues ~budget).Dp.total_score)

let prop_sorted_near_optimal =
  (* The paper reports tiny gaps; on small instances sorted DP should land
     within 80% of the optimum (it is exact in almost every run). *)
  QCheck2.Test.make ~name:"sorted DP reaches at least 80% of optimum" ~count:300
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      let opt = (Dp.sequential ~revenues ~budget).Dp.total_score in
      let s = (Dp.sorted ~revenues ~budget).Dp.total_score in
      5 * s >= 4 * opt)

let prop_binary_bounded =
  QCheck2.Test.make ~name:"binary DP is feasible and never beats sequential" ~count:300
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      let b = Dp.binary ~revenues ~budget in
      Dp.feasible ~revenues ~budget b
      && b.Dp.total_score <= (Dp.sequential ~revenues ~budget).Dp.total_score)

let prop_monotone_in_budget =
  QCheck2.Test.make ~name:"sequential score is monotone in budget" ~count:150
    ~print:print_instance revenue_gen
    (fun (revenues, budget) ->
      (Dp.sequential ~revenues ~budget).Dp.total_score
      <= (Dp.sequential ~revenues ~budget:(budget + 3)).Dp.total_score)

let suite =
  [
    Alcotest.test_case "Example 5 / Table I" `Quick test_example5_sequential;
    Alcotest.test_case "Example 5 allocation" `Quick test_example5_sequential_allocation;
    Alcotest.test_case "Example 5 binary DP" `Quick test_example5_binary;
    Alcotest.test_case "Example 5 / Table II (sorted)" `Quick test_example5_sorted;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
    Helpers.qtest prop_solve_optimal;
    Alcotest.test_case "feasibility check" `Quick test_feasible_check;
    Helpers.qtest prop_sequential_optimal;
    Helpers.qtest prop_literal_matches_sequential;
    Helpers.qtest prop_sequential_feasible;
    Helpers.qtest prop_sorted_feasible_and_bounded;
    Helpers.qtest prop_sorted_near_optimal;
    Helpers.qtest prop_binary_bounded;
    Helpers.qtest prop_monotone_in_budget;
  ]
