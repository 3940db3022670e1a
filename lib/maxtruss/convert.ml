open Graphcore

type outcome = {
  plan : (int * int) list;
  clique_fallbacks : int;
  greedy_fallbacks : int;
}

let csup ~h targets =
  let tbl = Hashtbl.create (max (List.length targets) 1) in
  List.iter
    (fun key ->
      let u, v = Edge_key.endpoints key in
      Hashtbl.replace tbl key (Graph.count_common_neighbors h u v))
    targets;
  tbl

(* Candidate new edges able to raise the support of [e] inside [h]: connect
   one endpoint of [e] to a neighbor of the other endpoint. *)
let candidates_for ~g ~h key =
  let u, v = Edge_key.endpoints key in
  let acc = ref [] in
  let try_edge a b =
    if a <> b && (not (Graph.mem_edge h a b)) && not (Graph.mem_edge g a b) then
      acc := Edge_key.make a b :: !acc
  in
  Graph.iter_neighbors h v (fun w -> if w <> u then try_edge u w);
  Graph.iter_neighbors h u (fun w -> if w <> v then try_edge v w);
  !acc

(* Unstable targets whose support a candidate (y,z) raises: the target edges
   among {(x,y), (x,z)} for common neighbors x. *)
let coverage ~h ~unstable key =
  let y, z = Edge_key.endpoints key in
  let c = ref 0 in
  Graph.iter_common_neighbors h y z (fun x ->
      if Hashtbl.mem unstable (Edge_key.make x y) then incr c;
      if Hashtbl.mem unstable (Edge_key.make x z) then incr c);
  !c

let apply_insertion ~h ~sup ~unstable ~threshold key =
  let y, z = Edge_key.endpoints key in
  ignore (Graph.add_edge h y z);
  Graph.iter_common_neighbors h y z (fun x ->
      let bump e =
        match Hashtbl.find_opt sup e with
        | Some s ->
          Hashtbl.replace sup e (s + 1);
          if s + 1 >= threshold then Hashtbl.remove unstable e
        | None -> ()
      in
      bump (Edge_key.make x y);
      bump (Edge_key.make x z))

(* Greedy covering pass: insert the stable candidate covering the most
   unstable targets, repeat until nothing helps.  Lazy greedy: coverage
   only shrinks as targets stabilize, so a stale max-heap refreshed at the
   top finds each round's winner with a handful of re-evaluations. *)
let greedy_cover ~g ~h ~sup ~unstable ~threshold =
  let cmp (c1, s1, k1) (c2, s2, k2) =
    match Int.compare c2 c1 with
    | 0 -> ( match Int.compare s2 s1 with 0 -> Edge_key.compare k1 k2 | c -> c)
    | c -> c
  in
  let heap = Min_heap.create ~cmp in
  let queued = Hashtbl.create 256 in
  let offer cand =
    if not (Hashtbl.mem queued cand) then begin
      Hashtbl.replace queued cand ();
      let y, z = Edge_key.endpoints cand in
      let own_support = Graph.count_common_neighbors h y z in
      if own_support >= threshold then begin
        let cov = coverage ~h ~unstable cand in
        if cov > 0 then Min_heap.push heap (cov, own_support, cand)
      end
    end
  in
  Hashtbl.iter (fun target () -> List.iter offer (candidates_for ~g ~h target)) unstable;
  let plan = ref [] in
  let continue = ref true in
  while !continue && Hashtbl.length unstable > 0 do
    match Min_heap.pop heap with
    | None -> continue := false
    | Some (_, _, cand) when Graph.mem_edge_key h cand -> ()
    | Some (stale_cov, _, cand) ->
      let y, z = Edge_key.endpoints cand in
      let own_support = Graph.count_common_neighbors h y z in
      let fresh = if own_support < threshold then 0 else coverage ~h ~unstable cand in
      if fresh = 0 then () (* drop *)
      else begin
        let next = match Min_heap.peek heap with Some (c, _, _) -> c | None -> 0 in
        if fresh >= next || fresh = stale_cov then begin
          plan := cand :: !plan;
          apply_insertion ~h ~sup ~unstable ~threshold cand;
          (* The new edge both creates fresh candidates and can raise the
             support/coverage of previously rejected ones around its
             endpoints — re-offer them (duplicates in the heap are harmless:
             committed edges are skipped at pop). *)
          Hashtbl.iter
            (fun target () ->
              let u, v = Edge_key.endpoints target in
              if u = y || u = z || v = y || v = z then
                List.iter
                  (fun c ->
                    Hashtbl.remove queued c;
                    offer c)
                  (candidates_for ~g ~h target))
            unstable
        end
        else Min_heap.push heap (fresh, own_support, cand)
      end
  done;
  List.rev !plan

(* Clique strategy: recruit k-2 extra nodes maximizing existing adjacency to
   the growing set, then add every missing pair — a k-clique is the smallest
   k-truss, so the target edge is certainly converted.  [count] holds each
   pool node's h-adjacency to the chosen set (-1 once chosen); every pick
   bumps its h-neighbours (all pool nodes: [h] only ever gains edges among
   them), so a recruit is the smallest touched id with the largest count,
   or the first free pool node when nothing is touched. *)
let clique_plan ~g ~h ~k ~pool key =
  let count = Hashtbl.create 64 in
  let chosen = ref [] in
  let choose w =
    chosen := w :: !chosen;
    Hashtbl.replace count w (-1);
    Graph.iter_neighbors h w (fun x ->
        match Hashtbl.find_opt count x with
        | Some c when c < 0 -> ()
        | Some c -> Hashtbl.replace count x (c + 1)
        | None -> Hashtbl.replace count x 1)
  in
  let u, v = Edge_key.endpoints key in
  choose u;
  choose v;
  let free = ref 0 in
  let is_chosen w = match Hashtbl.find_opt count w with Some c -> c < 0 | None -> false in
  (try
     for _ = 1 to k - 2 do
       let best_c, best_w =
         Hashtbl.fold
           (fun w c ((bc, bw) as acc) -> if c > bc || (c = bc && c > 0 && w < bw) then (c, w) else acc)
           count (0, max_int)
       in
       if best_c > 0 then choose best_w
       else begin
         while !free < Array.length pool && is_chosen pool.(!free) do
           incr free
         done;
         if !free = Array.length pool then raise Exit;
         choose pool.(!free)
       end
     done
   with Exit -> ());
  if List.length !chosen < k then None
  else begin
    let missing = ref [] in
    let rec pairs = function
      | [] -> ()
      | x :: rest ->
        List.iter
          (fun y ->
            if (not (Graph.mem_edge h x y)) && not (Graph.mem_edge g x y) then
              missing := Edge_key.make x y :: !missing)
          rest;
        pairs rest
    in
    pairs !chosen;
    Some (List.sort_uniq Edge_key.compare !missing)
  end

(* Cascading greedy: allow unstable candidates; freshly inserted edges
   become targets themselves.  Runs on [h] itself: its trial edges are
   never edges of [h], so removing them before returning restores [h]
   exactly, and every choice breaks ties by [Edge_key.compare], so the
   adjacency order the round trip may leave behind cannot change a plan.
   Gives up after [cap] insertions ([`Capped]) or when no candidate covers
   anything ([`Stuck]). *)
let greedy_cascade ~g ~h ~k ~cap ~target_key =
  let threshold = k - 2 in
  let sup = Hashtbl.create 16 in
  let unstable = Hashtbl.create 16 in
  let add_target key =
    let u, v = Edge_key.endpoints key in
    let s = Graph.count_common_neighbors h u v in
    Hashtbl.replace sup key s;
    if s < threshold then Hashtbl.replace unstable key ()
  in
  add_target target_key;
  let plan = ref [] and steps = ref 0 in
  let result = ref None in
  while Option.is_none !result && Hashtbl.length unstable > 0 do
    if !steps = cap then result := Some `Capped
    else begin
      incr steps;
      let best = ref None in
      Hashtbl.iter
        (fun t () ->
          List.iter
            (fun cand ->
              let cov = coverage ~h ~unstable cand in
              if cov > 0 then
                match !best with
                | Some (bc, bk) when bc > cov || (bc = cov && Edge_key.compare bk cand <= 0) -> ()
                | _ -> best := Some (cov, cand))
            (candidates_for ~g ~h t))
        unstable;
      match !best with
      | None -> result := Some `Stuck
      | Some (_, cand) ->
        plan := cand :: !plan;
        apply_insertion ~h ~sup ~unstable ~threshold cand;
        (* The inserted edge must itself survive into the truss. *)
        add_target cand
    end
  done;
  (* [plan] doubles as the undo log. *)
  List.iter
    (fun key ->
      let y, z = Edge_key.endpoints key in
      ignore (Graph.remove_edge h y z))
    !plan;
  match !result with Some r -> r | None -> `Plan (List.rev !plan)

(* Clique recruits: the local subgraph's nodes, their graph neighbors, and
   — when the component sits in a sparse corner with too few of either —
   arbitrary further graph nodes, so a k-clique can always be completed.
   Sorted ascending. *)
let clique_pool ~g ~h ~k =
  let seen = Hashtbl.create 64 in
  Graph.iter_nodes h (fun v -> Hashtbl.replace seen v ());
  Graph.iter_nodes h (fun v -> Graph.iter_neighbors g v (fun w -> Hashtbl.replace seen w ()));
  if Hashtbl.length seen < 2 * k then begin
    try
      Graph.iter_nodes g (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            if Hashtbl.length seen >= 2 * k then raise Exit
          end)
    with Exit -> ()
  end;
  let pool = Array.make (Hashtbl.length seen) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v () ->
      pool.(!i) <- v;
      incr i)
    seen;
  Array.sort Int.compare pool;
  pool

type covered = {
  h : Graph.t;
  sup : (Edge_key.t, int) Hashtbl.t;
  unstable : (Edge_key.t, unit) Hashtbl.t;
  inserted : Edge_key.t list;
}

let cover ~ctx ~target =
  let g = ctx.Score.g in
  let threshold = ctx.Score.k - 2 in
  (* Determinism: the outcome must depend on the target as a set, not on
     the order the caller enumerated it in. *)
  let target = List.sort_uniq Edge_key.compare target in
  let h =
    Obs.Span.with_ "convert.build_h" @@ fun () ->
    Truss.Onion.build_h ~g ~backdrop:ctx.Score.old_truss ~candidates:target
  in
  Obs.Span.with_ "convert.greedy_cover" @@ fun () ->
  let sup = csup ~h target in
  let unstable = Hashtbl.create 16 in
  Hashtbl.iter (fun key s -> if s < threshold then Hashtbl.replace unstable key ()) sup;
  let inserted = greedy_cover ~g ~h ~sup ~unstable ~threshold in
  { h; sup; unstable; inserted }

let c_conversions = Obs.Counter.make "convert.conversions"
let c_stragglers = Obs.Counter.make "convert.stragglers"
let c_cascade_capped = Obs.Counter.make "convert.cascade_capped"

let convert ~ctx ~target () =
  Obs.Span.with_ "convert.convert" @@ fun () ->
  Obs.Counter.incr c_conversions;
  let g = ctx.Score.g and k = ctx.Score.k in
  let threshold = k - 2 in
  let { h; sup; unstable; inserted } = cover ~ctx ~target in
  let plan = ref inserted in
  let clique_fallbacks = ref 0 and greedy_fallbacks = ref 0 in
  if Hashtbl.length unstable > 0 then begin
    Obs.Span.with_ "convert.stragglers" @@ fun () ->
    Obs.Counter.add c_stragglers (Hashtbl.length unstable);
    let pool = clique_pool ~g ~h ~k in
    (* Stragglers: cheapest of the two strategies, applied one target at a
       time (earlier fixes can stabilize later stragglers for free).  The
       clique plan goes first: a cascade longer than it would lose the
       comparison, so its length caps the cascade (ties go to the
       cascade). *)
    let stragglers = Hashtbl.fold (fun key () acc -> key :: acc) unstable [] in
    List.iter
      (fun key ->
        if Hashtbl.mem unstable key then begin
          let clique = clique_plan ~g ~h ~k ~pool key in
          let cap = match clique with Some b -> min (6 * k) (List.length b) | None -> 6 * k in
          let chosen =
            match (greedy_cascade ~g ~h ~k ~cap ~target_key:key, clique) with
            | `Plan a, _ -> (a, `Greedy)
            | `Capped, Some b when cap < 6 * k ->
              Obs.Counter.incr c_cascade_capped;
              (b, `Clique)
            | (`Capped | `Stuck), Some b -> (b, `Clique)
            | (`Capped | `Stuck), None -> ([], `Greedy)
          in
          match chosen with
          | [], _ -> ()
          | edges, which ->
            (match which with
            | `Greedy -> incr greedy_fallbacks
            | `Clique -> incr clique_fallbacks);
            List.iter
              (fun cand ->
                if not (Graph.mem_edge_key h cand) then begin
                  plan := cand :: !plan;
                  apply_insertion ~h ~sup ~unstable ~threshold cand
                end)
              edges
        end)
      (List.sort Edge_key.compare stragglers)
  end;
  {
    plan = List.map Edge_key.endpoints (List.sort_uniq Edge_key.compare !plan);
    clique_fallbacks = !clique_fallbacks;
    greedy_fallbacks = !greedy_fallbacks;
  }
