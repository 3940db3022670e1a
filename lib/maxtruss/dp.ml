module Imap = Map.Make (Int)

type allocation = {
  total_score : int;
  total_cost : int;
  chosen : (int * Plan.pair) list;
}

let allocation_of_choices revenues choices =
  let chosen =
    List.map
      (fun (c, cost) ->
        match List.find_opt (fun (p : Plan.pair) -> p.cost = cost) revenues.(c) with
        | Some p -> (c, p)
        | None -> invalid_arg "Dp: allocated cost not in component menu")
      choices
  in
  {
    total_score = List.fold_left (fun acc (_, (p : Plan.pair)) -> acc + p.score) 0 chosen;
    total_cost = List.fold_left (fun acc (_, (p : Plan.pair)) -> acc + p.cost) 0 chosen;
    chosen;
  }

(* Algorithm 3.  Grouped knapsack over the plan menus; the inner iteration
   over a component's plans realizes the [S_i[j - u]] term of Equation 2
   without scanning budgets where the step function does not change. *)
let sequential ~revenues ~budget =
  let n = Array.length revenues in
  let b = budget in
  if b < 0 then invalid_arg "Dp.sequential: negative budget";
  let prev = Array.make (b + 1) 0 in
  let cur = Array.make (b + 1) 0 in
  (* choice.(i) byte j = 1 + index of the plan taken at (i, j); 0 = none. *)
  let choice = Array.init n (fun _ -> Bytes.make (b + 1) '\000') in
  for i = 0 to n - 1 do
    let menu = Array.of_list revenues.(i) in
    if Array.length menu > 254 then invalid_arg "Dp.sequential: menu too long";
    Array.blit prev 0 cur 0 (b + 1);
    for j = 1 to b do
      Array.iteri
        (fun pi (p : Plan.pair) ->
          if p.cost <= j && prev.(j - p.cost) + p.score > cur.(j) then begin
            cur.(j) <- prev.(j - p.cost) + p.score;
            Bytes.set choice.(i) j (Char.chr (pi + 1))
          end)
        menu
    done;
    Array.blit cur 0 prev 0 (b + 1)
  done;
  (* Traceback. *)
  let choices = ref [] in
  let j = ref b in
  for i = n - 1 downto 0 do
    let c = Char.code (Bytes.get choice.(i) !j) in
    if c > 0 then begin
      let p = List.nth revenues.(i) (c - 1) in
      choices := (i, p.Plan.cost) :: !choices;
      j := !j - p.Plan.cost
    end
  done;
  allocation_of_choices revenues !choices

(* Algorithm 3 verbatim: the inner loop scans every u in [0, j] against the
   precomputed step function — Theta(|C| b^2). *)
let sequential_literal ~revenues ~budget =
  let n = Array.length revenues in
  let b = budget in
  let step menu =
    (* step.(x) = (best score with cost <= x, cost achieving it) *)
    let arr = Array.make (b + 1) (0, 0) in
    List.iter
      (fun (p : Plan.pair) ->
        if p.cost <= b then
          for x = p.cost to b do
            let s, _ = arr.(x) in
            if p.score > s then arr.(x) <- (p.score, p.cost)
          done)
      menu;
    arr
  in
  let prev = Array.make (b + 1) 0 in
  let cur = Array.make (b + 1) 0 in
  let choice = Array.init n (fun _ -> Array.make (b + 1) 0) in
  for i = 0 to n - 1 do
    let s_i = step revenues.(i) in
    for j = 0 to b do
      let best = ref prev.(j) and best_cost = ref 0 in
      for u = 0 to j do
        let s, cost = s_i.(j - u) in
        if prev.(u) + s > !best then begin
          best := prev.(u) + s;
          best_cost := cost
        end
      done;
      cur.(j) <- !best;
      choice.(i).(j) <- !best_cost
    done;
    Array.blit cur 0 prev 0 (b + 1)
  done;
  let choices = ref [] in
  let j = ref b in
  for i = n - 1 downto 0 do
    let cost = choice.(i).(!j) in
    if cost > 0 then begin
      choices := (i, cost) :: !choices;
      j := !j - cost
    end
  done;
  allocation_of_choices revenues !choices

(* CBTM's 0-1 DP: only the full-conversion plan of each component. *)
let binary ~revenues ~budget =
  let reduced =
    Array.map (fun r -> match Plan.max_pair r with None -> [] | Some p -> [ p ]) revenues
  in
  sequential ~revenues:reduced ~budget

(* Algorithm 4. *)
let sorted ~revenues ~budget =
  let n = Array.length revenues in
  let b = budget in
  let rows = min n b in
  if rows = 0 then { total_score = 0; total_cost = 0; chosen = [] }
  else begin
    (* M: components grouped by exact plan cost, best score first. *)
    let by_cost = Array.make (b + 1) [] in
    Array.iteri
      (fun c menu ->
        List.iter
          (fun (p : Plan.pair) ->
            if p.cost <= b then by_cost.(p.cost) <- (p.score, c) :: by_cost.(p.cost))
          menu)
      revenues;
    let by_cost =
      Array.map
        (fun l -> Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare b a) l))
        by_cost
    in
    let score_of c cost =
      match List.find_opt (fun (p : Plan.pair) -> p.cost = cost) revenues.(c) with
      | Some p -> p.score
      | None -> invalid_arg "Dp.sorted: missing plan"
    in
    let dp = Array.make_matrix (rows + 1) (b + 1) 0 in
    let sol = Array.make_matrix (rows + 1) (b + 1) Imap.empty in
    for i = 1 to rows do
      for j = 1 to b do
        (* Keep any forward-seeded value; then terms 1 and 2. *)
        let best = ref dp.(i).(j) and best_sol = ref sol.(i).(j) in
        if dp.(i).(j - 1) > !best then begin
          best := dp.(i).(j - 1);
          best_sol := sol.(i).(j - 1)
        end;
        if dp.(i - 1).(j) > !best then begin
          best := dp.(i - 1).(j);
          best_sol := sol.(i - 1).(j)
        end;
        (* Term 3: add a fresh component c with a plan of cost j - u on top
           of DP[i-1][u].  Scan at most i+1 heap entries per cost group —
           at most i-1 components can already be taken. *)
        for u = 0 to j - 1 do
          let w = j - u in
          let group = by_cost.(w) in
          let base_sol = sol.(i - 1).(u) in
          let limit = min (Array.length group) (i + 1) in
          let found = ref false in
          let idx = ref 0 in
          while (not !found) && !idx < limit do
            let s, c = group.(!idx) in
            if not (Imap.mem c base_sol) then begin
              found := true;
              if dp.(i - 1).(u) + s > !best then begin
                best := dp.(i - 1).(u) + s;
                best_sol := Imap.add c w base_sol
              end
            end;
            incr idx
          done
        done;
        dp.(i).(j) <- !best;
        sol.(i).(j) <- !best_sol;
        (* Term 4: upgrade one already-chosen component to a costlier plan,
           seeding the corresponding forward cell of the same row. *)
        Imap.iter
          (fun c bc ->
            List.iter
              (fun (p : Plan.pair) ->
                if p.cost > bc then begin
                  let j' = j + p.cost - bc in
                  if j' <= b then begin
                    let v = !best - score_of c bc + p.score in
                    if v > dp.(i).(j') then begin
                      dp.(i).(j') <- v;
                      sol.(i).(j') <- Imap.add c p.cost !best_sol
                    end
                  end
                end)
              revenues.(c))
          !best_sol
      done
    done;
    let choices = Imap.fold (fun c cost acc -> (c, cost) :: acc) sol.(rows).(b) [] in
    allocation_of_choices revenues choices
  end

let solve ~revenues ~budget =
  Obs.Span.with_ "dp.solve" @@ fun () -> sequential ~revenues ~budget

let brute_force ~revenues ~budget =
  let n = Array.length revenues in
  let rec go i remaining =
    if i = n then (0, [])
    else begin
      let skip = go (i + 1) remaining in
      List.fold_left
        (fun ((bs, _) as best) (p : Plan.pair) ->
          if p.cost <= remaining then begin
            let s, ch = go (i + 1) (remaining - p.cost) in
            if s + p.score > bs then (s + p.score, (i, p.cost) :: ch) else best
          end
          else best)
        skip revenues.(i)
    end
  in
  let _, choices = go 0 budget in
  allocation_of_choices revenues choices

let feasible ~revenues ~budget alloc =
  let comps = List.map fst alloc.chosen in
  let distinct = List.sort_uniq Int.compare comps in
  List.length distinct = List.length comps
  && alloc.total_cost <= budget
  && List.for_all
       (fun (c, (p : Plan.pair)) ->
         c >= 0
         && c < Array.length revenues
         && List.exists
              (fun (q : Plan.pair) -> q.cost = p.cost && q.score = p.score)
              revenues.(c))
       alloc.chosen
  && alloc.total_score
     = List.fold_left (fun acc (_, (p : Plan.pair)) -> acc + p.score) 0 alloc.chosen
