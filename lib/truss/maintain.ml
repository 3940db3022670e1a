open Graphcore

(* The batch never touches the graph it applies to: the base adjacency —
   a frozen {!Csr} snapshot or a {!Graph.t} — stays as it is, and a small
   functional overlay describes the batch (base minus deleted edges plus
   inserted ones).  Scoring and the service's epochs can therefore keep
   reading the base while a delta is computed against it. *)

module Overlay = struct
  type base = Csr of Csr.t | Graph of Graph.t

  type t = {
    base : base;
    inserted : (int * int) list;  (* normalised: absent from the base *)
    deleted : (int * int) list;  (* normalised: present in the base *)
    ins : (int, int list) Hashtbl.t;  (* endpoint -> inserted neighbors *)
    ins_nodes : Bytes.t;  (* bit [u mod 4096] set for every key of [ins] *)
    del_set : (Edge_key.t, unit) Hashtbl.t;
  }

  let rec mem_int (w : int) = function [] -> false | x :: rest -> x = w || mem_int w rest

  let base_mem t u v =
    match t.base with Csr c -> Csr.mem_edge c u v | Graph g -> Graph.mem_edge g u v

  (* Most nodes have no inserted edge; the bitmap answers that without a
     hash probe. *)
  let inserted_neighbors t u =
    let i = u land 4095 in
    if Char.code (Bytes.get t.ins_nodes (i lsr 3)) land (1 lsl (i land 7)) = 0 then []
    else match Hashtbl.find t.ins u with vs -> vs | exception Not_found -> []

  let build base ~inserted ~deleted =
    let t =
      {
        base;
        inserted = [];
        deleted = [];
        ins = Hashtbl.create 16;
        ins_nodes = Bytes.make 512 '\000';
        del_set = Hashtbl.create 16;
      }
    in
    (* Keep the first occurrence of each pair the base can take: the level
       delta relies on inserted edges being new and deleted ones present. *)
    let deleted =
      List.filter
        (fun (u, v) ->
          u <> v
          && base_mem t u v
          &&
          let key = Edge_key.make u v in
          (not (Hashtbl.mem t.del_set key)) && (Hashtbl.replace t.del_set key (); true))
        deleted
    in
    let add a b =
      Hashtbl.replace t.ins a (b :: inserted_neighbors t a);
      let i = a land 4095 in
      Bytes.set t.ins_nodes (i lsr 3)
        (Char.chr (Char.code (Bytes.get t.ins_nodes (i lsr 3)) lor (1 lsl (i land 7))))
    in
    let inserted =
      List.filter
        (fun (u, v) ->
          u <> v
          && (not (base_mem t u v))
          && (not (mem_int v (inserted_neighbors t u)))
          && (add u v; add v u; true))
        inserted
    in
    { t with inserted; deleted }

  let make ~csr = build (Csr csr)

  let of_graph g = build (Graph g)

  let is_deleted t key = Hashtbl.length t.del_set > 0 && Hashtbl.mem t.del_set key

  let deleted_edge t u v = Hashtbl.length t.del_set > 0 && Hashtbl.mem t.del_set (Edge_key.make u v)

  (* A base edge the batch does not delete. *)
  let live_base t u v = u <> v && base_mem t u v && not (deleted_edge t u v)

  let mem t u v = live_base t u v || mem_int v (inserted_neighbors t u)

  let iter_neighbors t u f =
    let live v = if not (deleted_edge t u v) then f v in
    (match t.base with Csr c -> Csr.iter_neighbors c u live | Graph g -> Graph.iter_neighbors g u live);
    List.iter f (inserted_neighbors t u)

  (* Over a graph base: every view neighbor of [a] that is one of [b]'s
     too, probing [b]'s hash set as {!Graph.iter_common_neighbors} does. *)
  let iter_graph_side t g f a ins_a b ins_b =
    let probe w = if w <> b && (live_base t b w || mem_int w ins_b) then f w in
    Graph.iter_neighbors g a
      (if Hashtbl.length t.del_set = 0 then probe
       else fun w -> if not (deleted_edge t a w) then probe w);
    List.iter probe ins_a

  (* Each base's own intersection.  Over a CSR: the sorted-row merge with
     deleted sides skipped, then the triangles an inserted side closes,
     once each — (u, w) inserted with (v, w) in the view, or (v, w)
     inserted with (u, w) a live base edge.  Over a graph: iterate the
     smaller side of the view, probe the other. *)
  let iter_common_neighbors t u v f =
    let ins_u = inserted_neighbors t u and ins_v = inserted_neighbors t v in
    match t.base with
    | Csr c ->
      Csr.iter_common_neighbors c u v (fun w ->
          if not (deleted_edge t u w || deleted_edge t v w) then f w);
      List.iter (fun w -> if live_base t v w || mem_int w ins_v then f w) ins_u;
      List.iter (fun w -> if live_base t u w then f w) ins_v
    | Graph g when ins_u == [] && ins_v == [] && Hashtbl.length t.del_set = 0 ->
      Graph.iter_common_neighbors g u v f
    | Graph g ->
      if Graph.degree g u + List.length ins_u <= Graph.degree g v + List.length ins_v then
        iter_graph_side t g f u ins_u v ins_v
      else iter_graph_side t g f v ins_v u ins_u

  let count_common_neighbors t u v =
    let c = ref 0 in
    iter_common_neighbors t u v (fun _ -> incr c);
    !c
end

type level_delta = { promoted : Edge_key.t list; demoted : Edge_key.t list }

(* The k-truss delta going from the base graph G to (G \ D) ∪ I, in two
   exact phases (after Jakkula & Karypis, arXiv:1908.10550).  Deletions
   only shrink the k-truss and every demoted edge is triangle-connected,
   inside the old truss, to a deleted edge; insertions only grow it and
   every promoted edge is triangle-connected, inside the new truss, to an
   inserted edge.  So: (1) cascade the deletions through the old truss,
   then (2) grow a region from the insertions over triangles that could
   lie in the new truss and peel it with the deletion survivors as an
   unpeelable backdrop.  Phase 1 may read the full view: the triangles an
   inserted side adds never consist of old-truss edges alone. *)
let level_delta (ov : Overlay.t) ~in_old ~k =
  let threshold = k - 2 in
  (* Phase 1: deletion cascade on G \ D. *)
  let removed = Hashtbl.create 16 in
  if ov.deleted <> [] then begin
    List.iter
      (fun (u, v) ->
        let key = Edge_key.make u v in
        if in_old key then Hashtbl.replace removed key ())
      ov.deleted;
    let alive key =
      in_old key && (not (Hashtbl.mem removed key)) && not (Overlay.is_deleted ov key)
    in
    let support key =
      let u, v = Edge_key.endpoints key in
      let s = ref 0 in
      Overlay.iter_common_neighbors ov u v (fun w ->
          if alive (Edge_key.make u w) && alive (Edge_key.make v w) then incr s);
      !s
    in
    let queue = Queue.create () in
    (* every alive truss edge that shared a triangle with (u, v) just lost
       one supporting triangle *)
    let enqueue_partners u v =
      let push key = if alive key then Queue.push key queue in
      Overlay.iter_neighbors ov u (fun w -> if w <> v then push (Edge_key.make u w));
      Overlay.iter_neighbors ov v (fun w -> if w <> u then push (Edge_key.make v w))
    in
    List.iter (fun (u, v) -> enqueue_partners u v) ov.deleted;
    while not (Queue.is_empty queue) do
      let key = Queue.pop queue in
      if alive key && support key < threshold then begin
        Hashtbl.replace removed key ();
        let u, v = Edge_key.endpoints key in
        enqueue_partners u v
      end
    done
  end;
  (* Phase 2: insertion growth + peel on (G \ D) ∪ I, with the deletion
     survivors as backdrop. *)
  let promoted =
    if ov.inserted = [] then []
    else begin
      let in_mid =
        if ov.deleted = [] then in_old
        else fun key ->
          in_old key && (not (Hashtbl.mem removed key)) && not (Overlay.is_deleted ov key)
      in
      (* Necessary condition for membership in the new truss: already a
         survivor, or support >= k - 2 in the updated graph. *)
      let filter_cache = Hashtbl.create 256 in
      let passes key =
        match Hashtbl.find_opt filter_cache key with
        | Some b -> b
        | None ->
          let u, v = Edge_key.endpoints key in
          let b =
            in_mid key
            || (Overlay.mem ov u v && Overlay.count_common_neighbors ov u v >= threshold)
          in
          Hashtbl.replace filter_cache key b;
          b
      in
      let region = Hashtbl.create 64 in
      let queue = Queue.create () in
      let consider key =
        if (not (Hashtbl.mem region key)) && (not (in_mid key)) && passes key then begin
          Hashtbl.replace region key ();
          Queue.push key queue
        end
      in
      List.iter (fun (u, v) -> consider (Edge_key.make u v)) ov.inserted;
      while not (Queue.is_empty queue) do
        let key = Queue.pop queue in
        let u, v = Edge_key.endpoints key in
        Overlay.iter_common_neighbors ov u v (fun w ->
            let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
            (* Expand only through triangles that could lie in the new
               truss: the companion edge must pass the filter too. *)
            if passes e2 then consider e1;
            if passes e1 then consider e2)
      done;
      (* Supports count triangles whose other two edges are in
         (region ∪ survivors). *)
      let present key = Hashtbl.mem region key || in_mid key in
      let sup = Hashtbl.create (max 16 (Hashtbl.length region)) in
      Hashtbl.iter
        (fun key () ->
          let u, v = Edge_key.endpoints key in
          let s = ref 0 in
          Overlay.iter_common_neighbors ov u v (fun w ->
              if present (Edge_key.make u w) && present (Edge_key.make v w) then incr s);
          Hashtbl.replace sup key !s)
        region;
      let removal = Queue.create () in
      let peeled = Hashtbl.create 64 in
      Hashtbl.iter (fun key s -> if s < threshold then Queue.push key removal) sup;
      while not (Queue.is_empty removal) do
        let key = Queue.pop removal in
        if not (Hashtbl.mem peeled key) then begin
          Hashtbl.replace peeled key ();
          let u, v = Edge_key.endpoints key in
          Overlay.iter_common_neighbors ov u v (fun w ->
              let e1 = Edge_key.make u w and e2 = Edge_key.make v w in
              let alive e = in_mid e || (Hashtbl.mem region e && not (Hashtbl.mem peeled e)) in
              (* Invariant: sup counts triangles whose other two edges are
                 alive, so a removal discounts a triangle exactly once. *)
              if alive e1 && alive e2 then begin
                let decr e =
                  if Hashtbl.mem region e && not (Hashtbl.mem peeled e) then begin
                    let s = Hashtbl.find sup e in
                    Hashtbl.replace sup e (s - 1);
                    if s - 1 < threshold then Queue.push e removal
                  end
                in
                decr e1;
                decr e2
              end)
        end
      done;
      Hashtbl.fold
        (fun key () acc -> if Hashtbl.mem peeled key then acc else key :: acc)
        region []
    end
  in
  { promoted; demoted = Hashtbl.fold (fun key () acc -> key :: acc) removed [] }

type batch_result = {
  changes : (Edge_key.t * int option) list;
  levels : int;
  region_edges : int;
}

let c_levels = Obs.Counter.make "maintain.levels"
let c_region_edges = Obs.Counter.make "maintain.region_edges"

let batch_update_csr ~csr ~tau ~kmax ~inserted ~deleted =
  Obs.Span.with_ "truss.maintain_batch" (fun () ->
      let ov = Overlay.make ~csr ~inserted ~deleted in
      let inserted = ov.Overlay.inserted and deleted = ov.Overlay.deleted in
      let tau0 key = match tau key with Some t -> t | None -> 0 in
      (* promo: edge -> highest level it was promoted at; demo: edge ->
         lowest level it was demoted at.  Demotions are monotone upward
         (new trusses are nested), promotions downward, so these two
         numbers pin the edge's whole membership profile. *)
      let promo = Hashtbl.create 64 in
      let demo = Hashtbl.create 64 in
      let levels = ref 0 in
      let region_edges = ref 0 in
      let rec loop k =
        let d = level_delta ov ~in_old:(fun key -> tau0 key >= k) ~k in
        incr levels;
        region_edges := !region_edges + List.length d.promoted + List.length d.demoted;
        List.iter
          (fun key ->
            match Hashtbl.find_opt promo key with
            | Some p when p >= k -> ()
            | _ -> Hashtbl.replace promo key k)
          d.promoted;
        List.iter
          (fun key ->
            match Hashtbl.find_opt demo key with
            | Some p when p <= k -> ()
            | _ -> Hashtbl.replace demo key k)
          d.demoted;
        (* Stop once the new k-truss is empty: beyond the old kmax the only
           members are promotions, so an empty promotion level ends it. *)
        if k <= kmax || d.promoted <> [] then loop (k + 1)
      in
      if inserted <> [] || deleted <> [] then loop 3;
      let changed = Hashtbl.create 64 in
      List.iter (fun (u, v) -> Hashtbl.replace changed (Edge_key.make u v) `Deleted) deleted;
      let mark key = if not (Hashtbl.mem changed key) then Hashtbl.replace changed key `Live in
      List.iter (fun (u, v) -> mark (Edge_key.make u v)) inserted;
      Hashtbl.iter (fun key _ -> mark key) promo;
      Hashtbl.iter (fun key _ -> mark key) demo;
      let changes =
        Hashtbl.fold
          (fun key state acc ->
            match state with
            | `Deleted -> (key, None) :: acc
            | `Live ->
              let p = Option.value ~default:0 (Hashtbl.find_opt promo key) in
              let d = Option.value ~default:max_int (Hashtbl.find_opt demo key) in
              let from_old = min (tau0 key) (d - 1) in
              (key, Some (max 2 (max p from_old))) :: acc)
          changed []
      in
      Obs.Counter.add c_levels !levels;
      Obs.Counter.add c_region_edges !region_edges;
      { changes; levels = !levels; region_edges = !region_edges })
