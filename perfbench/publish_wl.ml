(* The publish workload: one client in a closed loop over an epoch store.
   Each round sends one small [mutate] batch, waits for its reply, then
   reads its own writes with a fixed mix of [trussness], [truss-query] and
   [onion] requests on the fresh epoch.  Requests go as JSON lines through
   [Request.parse] into [Request.handle_mutate] / [Request.handle_read],
   the daemon's dispatch path without sockets.

   The client keeps its own mirror of the edge set, so it draws valid
   batches (inserts of non-edges, deletes of live edges, disjoint) without
   reading the program's state, and the oracle rebuilds epochs from the
   mirror rather than from the program's graph. *)

open Graphcore
module Request = Service.Request
module Epoch = Service.Epoch
module Store = Service.Store

(* {2 Client} *)

type mirror = {
  g : Graph.t;
  mutable edges : Edge_key.t array;
  mutable n : int;
  pos : (Edge_key.t, int) Hashtbl.t;
  nodes : int array;
}

let mirror_of g =
  let g = Graph.copy g in
  let edges = Graph.edge_array g in
  let pos = Hashtbl.create (2 * Array.length edges) in
  Array.iteri (fun i key -> Hashtbl.replace pos key i) edges;
  let nodes = ref [] in
  Graph.iter_nodes g (fun u -> nodes := u :: !nodes);
  let nodes = Array.of_list !nodes in
  Array.sort Int.compare nodes;
  { g; edges; n = Array.length edges; pos; nodes }

let mirror_insert m (u, v) =
  let key = Edge_key.make u v in
  ignore (Graph.add_edge m.g u v);
  if m.n = Array.length m.edges then
    m.edges <- Array.append m.edges (Array.make (max 16 m.n) key);
  m.edges.(m.n) <- key;
  Hashtbl.replace m.pos key m.n;
  m.n <- m.n + 1

let mirror_delete m (u, v) =
  let key = Edge_key.make u v in
  ignore (Graph.remove_edge m.g u v);
  let i = Hashtbl.find m.pos key in
  let last = m.edges.(m.n - 1) in
  m.edges.(i) <- last;
  Hashtbl.replace m.pos last i;
  Hashtbl.remove m.pos key;
  m.n <- m.n - 1

type read_class = Trussness | Truss_query | Onion

let class_name = function
  | Trussness -> "trussness"
  | Truss_query -> "truss-query"
  | Onion -> "onion"

type round = {
  ins : (int * int) list;
  del : (int * int) list;
  mutate_line : string;
  reads : (read_class * string) list;
}

type mix = {
  inserts : int;
  deletes : int;
  trussness_reads : int;
  pairs_per_read : int;
  query_reads : int;
  query_k : int list;  (** the truss-query levels, drawn uniformly *)
  query_limit : int;
  onion_k : int;
  onion_limit : int;
}

(* Seven cheap point lookups, two truss-queries and one onion read per
   round.  The truss-queries ask for the mid-hierarchy levels below [k],
   whose thousands of edges the reply sorts, so they sit well above the
   lookups; the onion read is the first of its epoch and pays the
   onion-layer memo miss.  The median read thus falls well inside the
   trussness class and the tail inside the onion class. *)
let mix ~k =
  {
    inserts = 3;
    deletes = 2;
    trussness_reads = 7;
    pairs_per_read = 8;
    query_reads = 2;
    query_k = [ k - 2; k - 1 ];
    query_limit = 20;
    onion_k = k;
    onion_limit = 20;
  }

let reads_per_round mix = mix.trussness_reads + mix.query_reads + 1

let pair_json (u, v) = Printf.sprintf "[%d,%d]" u v

let gen_round rng m mix =
  let rand_node () = m.nodes.(Rng.int rng (Array.length m.nodes)) in
  let chosen = Hashtbl.create 8 in
  let rec draw_insert () =
    let u = rand_node () and v = rand_node () in
    let key = if u = v then None else Some (Edge_key.make u v) in
    match key with
    | Some key when (not (Graph.mem_edge m.g u v)) && not (Hashtbl.mem chosen key) ->
      Hashtbl.replace chosen key ();
      (u, v)
    | _ -> draw_insert ()
  in
  let rec draw_delete () =
    let key = m.edges.(Rng.int rng m.n) in
    if Hashtbl.mem chosen key then draw_delete ()
    else begin
      Hashtbl.replace chosen key ();
      Edge_key.endpoints key
    end
  in
  let ins = List.init mix.inserts (fun _ -> draw_insert ()) in
  let del = List.init mix.deletes (fun _ -> draw_delete ()) in
  let ops =
    List.map (fun (u, v) -> Printf.sprintf "[\"insert\",%d,%d]" u v) ins
    @ List.map (fun (u, v) -> Printf.sprintf "[\"delete\",%d,%d]" u v) del
  in
  let mutate_line = Printf.sprintf "{\"op\":\"mutate\",\"ops\":[%s]}" (String.concat "," ops) in
  List.iter (mirror_insert m) ins;
  List.iter (mirror_delete m) del;
  (* Point lookups: the batch's own edges first (read-your-writes), then
     live edges and random pairs in equal parts. *)
  let own = ins @ del in
  let lookup i =
    let pairs =
      List.init mix.pairs_per_read (fun j ->
          if i = 0 && j < List.length own then List.nth own j
          else if j mod 2 = 0 then Edge_key.endpoints m.edges.(Rng.int rng m.n)
          else (rand_node (), rand_node ()))
    in
    ( Trussness,
      Printf.sprintf "{\"op\":\"trussness\",\"edges\":[%s]}"
        (String.concat "," (List.map pair_json pairs)) )
  in
  let query _ =
    let k = List.nth mix.query_k (Rng.int rng (List.length mix.query_k)) in
    (Truss_query, Printf.sprintf "{\"op\":\"truss-query\",\"k\":%d,\"limit\":%d}" k mix.query_limit)
  in
  let onion =
    (Onion, Printf.sprintf "{\"op\":\"onion\",\"k\":%d,\"limit\":%d}" mix.onion_k mix.onion_limit)
  in
  let lookups = List.init mix.trussness_reads lookup in
  let reads =
    match lookups with
    | first :: rest -> (first :: List.init mix.query_reads query) @ (onion :: rest)
    | [] -> List.init mix.query_reads query @ [ onion ]
  in
  { ins; del; mutate_line; reads }

(* {2 Dispatch} *)

let mutate_config = Service.Mutation_log.default_config

let dispatch_mutate store line =
  match Request.parse line with
  | Ok (Request.Mutate ops) -> Request.handle_mutate ~store ~config:mutate_config ops
  | Ok _ -> Request.error_response "expected a mutate request"
  | Error e -> Request.error_response e

let dispatch_read epoch line =
  match Request.parse line with
  | Ok req when Request.is_read req -> Request.handle_read ~epoch req
  | Ok _ -> Request.error_response "expected a read request"
  | Error e -> Request.error_response e

(* [Request.handle_mutate]'s reply to a clean incremental publish, up to
   the level and region counts of the maintenance pass. *)
let mutate_reply_prefix ~generation ~inserted ~deleted =
  Printf.sprintf
    "{\"op\":\"mutate\",\"generation\":%d,\"inserted\":%d,\"deleted\":%d,\"ignored\":0,%s"
    generation inserted deleted "\"fallback\":false,"

let expected_mutate_prefix ~generation round =
  mutate_reply_prefix ~generation ~inserted:(List.length round.ins) ~deleted:(List.length round.del)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* {2 Oracle} *)

(* Canonical reads compared between the maintained epoch and a fresh one,
   after [bench/exp_serve.ml]: enough surface to catch a wrong trussness,
   index offset or onion layer. *)
let oracle_reads ~k ~sample_pairs =
  [
    Request.Decompose;
    Request.Stats { detail = false };
    Request.Truss_query { k; limit = Some 200 };
    Request.Truss_query { k = 3; limit = Some 50 };
    Request.Onion { k; limit = Some 100 };
    Request.Trussness sample_pairs;
  ]

(* Byte-compare a maintained epoch against [Epoch.create] on the client's
   mirror graph: the canonical reads, plus every read line of the round
   against the response the timed loop recorded.  Returns the number of
   mismatches. *)
let verify ~k ~m epoch recorded =
  let fresh = Epoch.create ~generation:(Epoch.generation epoch) m.g in
  let sample_pairs =
    List.init 16 (fun i -> Edge_key.endpoints m.edges.(i * 7919 mod m.n))
  in
  let canonical =
    List.filter
      (fun req -> Request.handle_read ~epoch req <> Request.handle_read ~epoch:fresh req)
      (oracle_reads ~k ~sample_pairs)
  in
  let replayed = List.filter (fun (line, resp) -> dispatch_read fresh line <> resp) recorded in
  List.length canonical + List.length replayed

(* {2 Untraced closed loop} *)

let now = Layers.now

type loop = {
  publish_s : float list list;  (** per window: mutate send to reply *)
  read_s : (read_class * float) list list;  (** per window: read send to reply *)
  wall_s : float;  (** sum of round times, client generation and checks excluded *)
  rounds : int;
  requests : int;
  failed : int;
}

let is_error resp = starts_with ~prefix:"{\"error\"" resp

(* One round on [store]: the mutate, then the reads on the fresh epoch.
   Returns the mutate reply, the read lines with their replies, and the
   round's wall time; [on_read] sees each read's class and latency. *)
let untraced_round store round ~on_publish ~on_read =
  let t0 = now () in
  let resp = dispatch_mutate store round.mutate_line in
  let t1 = now () in
  on_publish (t1 -. t0);
  let recorded =
    List.map
      (fun (cls, line) ->
        let r0 = now () in
        let r = dispatch_read (Store.current store) line in
        on_read cls (now () -. r0);
        (line, r))
      round.reads
  in
  (resp, recorded, now () -. t0)

(* Checks outside the timed region: the mutate reply must report a clean
   incremental publish of exactly the batch, no reply may be an error, and
   on sampled rounds every reply must match a from-scratch epoch.  Returns
   the number of failed requests. *)
let check_round ~k ~m ~store ~generation ~verify_now round (resp, recorded) =
  let prefix = expected_mutate_prefix ~generation round in
  let bad_mutate = if starts_with ~prefix resp then 0 else 1 in
  let bad_reads = List.length (List.filter (fun (_, r) -> is_error r) recorded) in
  let oracle = if verify_now then verify ~k ~m (Store.current store) recorded else 0 in
  bad_mutate + bad_reads + oracle

(* A closed-loop session.  Rounds are grouped in windows of [window]
   rounds, so each window holds exactly the samples its tail percentiles
   need. *)
type session = {
  store : Store.t;
  m : mirror;
  k : int;
  mix : mix;
  rng : Rng.t;
  window : int;
  verify_every : int;
  fallbacks0 : int;
  mutable windows_publish : float list list;
  mutable windows_read : (read_class * float) list list;
  mutable cur_publish : float list;
  mutable cur_read : (read_class * float) list;
  mutable wall : float;
  mutable rounds : int;
  mutable requests : int;
  mutable failed : int;
  mutable unverified : (string * string) list option;  (** the last round, if not yet verified *)
}

let start ~seed ~store ~m ~k ~window ~verify_every =
  {
    store;
    m;
    k;
    mix = mix ~k;
    rng = Rng.create seed;
    window;
    verify_every;
    fallbacks0 = Service.Mutation_log.fallback_count ();
    windows_publish = [];
    windows_read = [];
    cur_publish = [];
    cur_read = [];
    wall = 0.;
    rounds = 0;
    requests = 0;
    failed = 0;
    unverified = None;
  }

let windows s = List.length s.windows_publish

(* One round: generate, send, record, check. *)
let step s =
  let round = gen_round s.rng s.m s.mix in
  let resp, recorded, dt =
    untraced_round s.store round
      ~on_publish:(fun dt -> s.cur_publish <- dt :: s.cur_publish)
      ~on_read:(fun cls dt -> s.cur_read <- (cls, dt) :: s.cur_read)
  in
  s.rounds <- s.rounds + 1;
  s.wall <- s.wall +. dt;
  s.requests <- s.requests + 1 + List.length recorded;
  let verify_now = s.rounds mod s.verify_every = 0 in
  s.failed <-
    s.failed
    + check_round ~k:s.k ~m:s.m ~store:s.store ~generation:s.rounds ~verify_now round
        (resp, recorded);
  s.unverified <- (if verify_now then None else Some recorded);
  if s.rounds mod s.window = 0 then begin
    s.windows_publish <- s.cur_publish :: s.windows_publish;
    s.windows_read <- s.cur_read :: s.windows_read;
    s.cur_publish <- [];
    s.cur_read <- []
  end

(* Completed windows only; the final epoch is always verified. *)
let finish s =
  assert (s.cur_publish = []);
  (match s.unverified with
  | Some recorded -> s.failed <- s.failed + verify ~k:s.k ~m:s.m (Store.current s.store) recorded
  | None -> ());
  s.unverified <- None;
  if Service.Mutation_log.fallback_count () <> s.fallbacks0 then s.failed <- s.failed + 1;
  {
    publish_s = s.windows_publish;
    read_s = s.windows_read;
    wall_s = s.wall;
    rounds = s.rounds;
    requests = s.requests;
    failed = s.failed;
  }

(* One loop's worth of samples from several sessions. *)
let merge loops =
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 loops in
  {
    publish_s = List.concat_map (fun l -> l.publish_s) loops;
    read_s = List.concat_map (fun l -> l.read_s) loops;
    wall_s = List.fold_left (fun acc l -> acc +. l.wall_s) 0. loops;
    rounds = sum (fun l -> l.rounds);
    requests = sum (fun l -> l.requests);
    failed = sum (fun l -> l.failed);
  }

(* Run whole windows up to the window boundary nearest to [seconds] of
   round time, and at least [min_windows]; [after_round] runs after each
   round, outside the timed region. *)
let run ?(after_round = ignore) s ~seconds ~min_windows =
  let rec go () =
    let before = s.wall in
    for _ = 1 to s.window do
      step s;
      after_round s.rounds
    done;
    let per_window = s.wall -. before in
    if windows s < min_windows || seconds -. s.wall > per_window /. 2. then go ()
  in
  go ()

(* {2 Staged replay} *)

(* [Mutation_log.apply]'s normalization for a batch that is already
   normal, as every client batch is: split and sort by edge key. *)
let net_changes epoch ops =
  let g = Epoch.graph epoch in
  let ins, del =
    List.partition_map
      (function
        | Service.Mutation_log.Insert (u, v) -> Either.Left (u, v)
        | Service.Mutation_log.Delete (u, v) -> Either.Right (u, v))
      ops
  in
  if
    not
      (List.for_all (fun (u, v) -> not (Graph.mem_edge g u v)) ins
      && List.for_all (fun (u, v) -> Graph.mem_edge g u v) del)
  then invalid_arg "Publish_wl.net_changes: batch is not normal";
  let by_key (a, b) (c, d) = Edge_key.compare (Edge_key.make a b) (Edge_key.make c d) in
  (List.sort by_key ins, List.sort by_key del)

type staged = { reply : string; levels : int; region_edges : int }

(* [Mutation_log.apply]'s incremental path, stage by stage: copy and edit
   the graph, maintain trussness, patch the decomposition and the index,
   snapshot the CSR, assemble and publish the epoch.  The reply is
   rendered as [Request.handle_mutate] renders it. *)
let staged_mutate layers store ops =
  let out = ref None in
  let _ =
    Store.publish store ~build:(fun epoch ->
        let ins, del = net_changes epoch ops in
        let changed = List.length ins + List.length del in
        if
          float_of_int changed
          > mutate_config.Service.Mutation_log.fallback_fraction
            *. float_of_int (max (Epoch.num_edges epoch) 1)
        then invalid_arg "Publish_wl.staged_mutate: batch would take the fallback path";
        let graph =
          Layers.time layers "graph.copy" (fun () ->
              let g = Graph.copy (Epoch.graph epoch) in
              ignore (Graph.add_edges g ins);
              ignore (Graph.remove_edges g del);
              g)
        in
        let dec0 = Epoch.decompose epoch in
        let r =
          Layers.time layers "maintain.batch_update" (fun () ->
              Truss.Maintain.batch_update_csr ~csr:(Epoch.csr epoch)
                ~tau:(Truss.Decompose.trussness_opt dec0)
                ~kmax:(Truss.Decompose.kmax dec0) ~inserted:ins ~deleted:del)
        in
        let changes = r.Truss.Maintain.changes in
        let dec =
          Layers.time layers "decompose.patched" (fun () -> Truss.Decompose.patched dec0 ~changes)
        in
        let index =
          Layers.time layers "index.of_deltas" (fun () ->
              Truss.Index.of_deltas (Epoch.index epoch) ~changes)
        in
        let csr = Layers.time layers "csr.of_graph" (fun () -> Csr.of_graph graph) in
        let generation = Epoch.generation epoch + 1 in
        let e =
          Layers.time layers "epoch.make" (fun () -> Epoch.make ~graph ~csr ~dec ~index ~generation)
        in
        out :=
          Some
            {
              reply =
                mutate_reply_prefix ~generation ~inserted:(List.length ins)
                  ~deleted:(List.length del)
                ^ Printf.sprintf "\"levels\":%d,\"region_edges\":%d}" r.Truss.Maintain.levels
                    r.Truss.Maintain.region_edges;
              levels = r.Truss.Maintain.levels;
              region_edges = r.Truss.Maintain.region_edges;
            };
        e)
  in
  Option.get !out

(* One round through the staged path, with the read side attributed to
   [Request.parse], [Epoch.onion_layers] (the memo miss of the epoch's
   first onion read) and [Request.handle_read] per request class. *)
let traced_round layers store round =
  let parse line = Layers.time layers "request.parse" (fun () -> Request.parse line) in
  let t0 = now () in
  let staged =
    match parse round.mutate_line with
    | Ok (Request.Mutate ops) -> Some (staged_mutate layers store ops)
    | _ -> None
  in
  let onion_seen = ref false in
  let recorded =
    List.map
      (fun (_, line) ->
        let epoch = Store.current store in
        let reply =
          match parse line with
          | Ok req when Request.is_read req ->
            (match req with
            | Request.Onion { k; _ } when not !onion_seen ->
              onion_seen := true;
              ignore
                (Layers.time layers "epoch.onion_layers" (fun () -> Epoch.onion_layers epoch ~k))
            | _ -> ());
            Layers.time layers ("request.handle_read." ^ Request.op_name req) (fun () ->
                Request.handle_read ~epoch req)
          | Ok _ -> Request.error_response "expected a read request"
          | Error e -> Request.error_response e
        in
        (line, reply))
      round.reads
  in
  (staged, recorded, now () -. t0)

type traced = {
  untraced_wall_s : float;
  traced_wall_s : float;
  t_rounds : int;
  t_requests : int;
  t_failed : int;
  levels : int list;
  region_edges : int list;
}

(* Each round runs once through [Request.handle_mutate] on [store_a] and
   once through the staged path on [store_b], alternating which goes
   first; every reply must match byte for byte.  The final epoch is also
   checked against the from-scratch oracle. *)
let run_traced layers ~seed ~store_a ~store_b ~m ~k ~seconds =
  let mix = mix ~k in
  let rng = Rng.create seed in
  let fallbacks0 = Service.Mutation_log.fallback_count () in
  let wall_a = ref 0. and wall_b = ref 0. and rounds = ref 0 and failed = ref 0 in
  let levels = ref [] and region = ref [] and requests = ref 0 in
  let last = ref [] in
  while !rounds = 0 || !wall_a +. !wall_b < seconds do
    let round = gen_round rng m mix in
    let run_a () = untraced_round store_a round ~on_publish:ignore ~on_read:(fun _ _ -> ()) in
    let run_b () = traced_round layers store_b round in
    let (resp_a, recorded_a, dt_a), (staged, recorded_b, dt_b) =
      if !rounds mod 2 = 0 then
        let a = run_a () in
        (a, run_b ())
      else
        let b = run_b () in
        (run_a (), b)
    in
    incr rounds;
    wall_a := !wall_a +. dt_a;
    wall_b := !wall_b +. dt_b;
    requests := !requests + 1 + List.length recorded_b;
    failed :=
      !failed
      + check_round ~k ~m ~store:store_a ~generation:!rounds ~verify_now:false round
          (resp_a, recorded_a);
    (match staged with
    | Some s when s.reply = resp_a ->
      levels := s.levels :: !levels;
      region := s.region_edges :: !region
    | _ -> incr failed);
    List.iter2 (fun (_, a) (_, b) -> if a <> b then incr failed) recorded_a recorded_b;
    last := recorded_a
  done;
  failed := !failed + verify ~k ~m (Store.current store_a) !last;
  if Service.Mutation_log.fallback_count () <> fallbacks0 then incr failed;
  {
    untraced_wall_s = !wall_a;
    traced_wall_s = !wall_b;
    t_rounds = !rounds;
    t_requests = !requests;
    t_failed = !failed;
    levels = !levels;
    region_edges = !region;
  }
