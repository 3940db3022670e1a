open Graphcore

(* [tau] answers lookups; [by_tau] holds the same edges grouped by
   trussness, deepest class first: class [k] is the slice
   [sizes.(k+1), sizes.(k)), so [sizes.(k)] = |T_k| for 2 <= k <= kmax+1. *)
type t = {
  tau : (Edge_key.t, int) Hashtbl.t;
  kmax : int;
  by_tau : Edge_key.t array;
  sizes : int array;
}

let c_edges_peeled = Obs.Counter.make "decompose.edges_peeled"

(* The one bucket pass by trussness, shared by [of_csr] and [patched]:
   [count.(k)] is the size of class [k].  Each class fills from its top
   slot down, so a class read forward is in the reverse of [tau]'s
   iteration order: the order [k_class] has always returned, which fixes
   the onion candidates' and the baselines' enumeration order. *)
let freeze tau count =
  let kmax = ref 0 in
  Array.iteri (fun k c -> if c > 0 then kmax := k) count;
  let kmax = !kmax in
  let sizes = Array.make (kmax + 2) 0 in
  for k = kmax downto 2 do
    sizes.(k) <- sizes.(k + 1) + count.(k)
  done;
  let fill = Array.copy sizes in
  let by_tau = Array.make (Hashtbl.length tau) 0 in
  Hashtbl.iter
    (fun key k ->
      let i = fill.(k) - 1 in
      fill.(k) <- i;
      by_tau.(i) <- key)
    tau;
  { tau; kmax; by_tau; sizes }

(* Peel on a CSR snapshot: every piece of peeling state is a flat int
   array indexed by edge id — supports, liveness, trussness — and the
   bucket queue is an intrusive doubly-linked list threaded through
   [next]/[prev], so the whole peel allocates nothing beyond the initial
   arrays.  Deleted edges are tracked with [alive] flags; the snapshot
   itself never changes. *)
let peel csr =
  let m = Csr.num_edges csr in
  let tau = Hashtbl.create (max m 1) in
  if m = 0 then freeze tau [||]
  else begin
    let sup = Support.all_csr csr in
    let max_sup = Array.fold_left max 0 sup in
    (* Intrusive bucket list: head.(p) is the first edge with current
       support p; next/prev thread edges of equal support.  Supports only
       move down (clamped at k - 2 >= the cursor), so a monotone cursor
       finds each minimum in amortized O(1). *)
    let head = Array.make (max_sup + 1) (-1) in
    let next = Array.make m (-1) in
    let prev = Array.make m (-1) in
    let unlink e =
      let p = sup.(e) in
      if prev.(e) >= 0 then next.(prev.(e)) <- next.(e) else head.(p) <- next.(e);
      if next.(e) >= 0 then prev.(next.(e)) <- prev.(e)
    in
    let link e p =
      sup.(e) <- p;
      prev.(e) <- -1;
      next.(e) <- head.(p);
      if head.(p) >= 0 then prev.(head.(p)) <- e;
      head.(p) <- e
    in
    for e = m - 1 downto 0 do
      link e sup.(e)
    done;
    let alive = Array.make m true in
    let tau_arr = Array.make m 0 in
    let k = ref 2 in
    let cursor = ref 0 in
    for _ = 1 to m do
      while head.(!cursor) < 0 do
        incr cursor
      done;
      let e = head.(!cursor) in
      let s = !cursor in
      unlink e;
      alive.(e) <- false;
      if s + 2 > !k then k := s + 2;
      tau_arr.(e) <- !k;
      let u, v = Csr.edge_endpoints csr e in
      let floor = !k - 2 in
      Csr.iter_common_neighbors_eid csr u v (fun _ e1 e2 ->
          if alive.(e1) && alive.(e2) then begin
            let drop e' =
              let p = sup.(e') in
              let p' = max (p - 1) floor in
              if p' <> p then begin
                unlink e';
                link e' p'
              end
            in
            drop e1;
            drop e2
          end)
    done;
    (* [k] only ever rises, so it ends at kmax *)
    let count = Array.make (!k + 1) 0 in
    for e = 0 to m - 1 do
      Hashtbl.replace tau (Csr.edge_key csr e) tau_arr.(e);
      count.(tau_arr.(e)) <- count.(tau_arr.(e)) + 1
    done;
    freeze tau count
  end

(* [snapshot] runs inside the span, so [run]'s own CSR build stays
   attributed to the decomposition. *)
let decompose snapshot =
  Obs.Span.with_ "truss.decompose" (fun () ->
      let t = peel (snapshot ()) in
      Obs.Counter.add c_edges_peeled (Hashtbl.length t.tau);
      t)

let of_csr csr = decompose (fun () -> csr)

let run g = decompose (fun () -> Csr.of_graph g)

let patched t ~changes =
  let tau = Hashtbl.copy t.tau in
  let top =
    List.fold_left (fun acc (_, change) -> max acc (Option.value change ~default:0)) t.kmax changes
  in
  let count = Array.make (top + 1) 0 in
  for k = 2 to t.kmax do
    count.(k) <- t.sizes.(k) - t.sizes.(k + 1)
  done;
  List.iter
    (fun (key, change) ->
      Option.iter (fun v -> count.(v) <- count.(v) - 1) (Hashtbl.find_opt tau key);
      match change with
      | Some v ->
        Hashtbl.replace tau key v;
        count.(v) <- count.(v) + 1
      | None -> Hashtbl.remove tau key)
    changes;
  freeze tau count

let trussness t key = Hashtbl.find t.tau key

let trussness_opt t key = Hashtbl.find_opt t.tau key

let kmax t = t.kmax

let truss_size t k =
  if k <= 2 then Array.length t.by_tau else if k > t.kmax then 0 else t.sizes.(k)

let slice t ~lo ~hi = Array.to_list (Array.sub t.by_tau lo (hi - lo))

let k_class t k = slice t ~lo:(truss_size t (k + 1)) ~hi:(truss_size t k)

let truss_edges t k = slice t ~lo:0 ~hi:(truss_size t k)

let truss_edge_table t k =
  let tbl = Hashtbl.create 256 in
  Hashtbl.iter (fun key tau -> if tau >= k then Hashtbl.replace tbl key ()) t.tau;
  tbl

let class_sizes t =
  List.init (max 0 (t.kmax - 1)) (fun i -> (i + 2, truss_size t (i + 2) - truss_size t (i + 3)))
  |> List.filter (fun (_, c) -> c > 0)

let num_edges t = Hashtbl.length t.tau

let iter t f = Hashtbl.iter f t.tau
