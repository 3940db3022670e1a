(* The three workloads, untraced and traced, as reports of named metrics.

   Every untraced run reports every end-to-end metric and every traced run
   every per-layer metric.  A workload's headline path fills the metrics
   that belong to it; the metrics of the other path come from a fixed,
   small cross-path probe on [gowalla-sample] (see [BENCHMARK.json]), and
   the per-layer metrics of a path a workload never calls read 0. *)

type metric = { name : string; unit_ : string; value : float }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;  (** sample counts and run metadata *)
}

let now = Layers.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let dataset name = (Datasets.Registry.find name).Datasets.Registry.build ()

(* Every timed unit of work starts from a compacted heap, so the garbage of
   the previous one does not bill it for a major collection. *)
let timed_fresh f =
  Gc.compact ();
  timed f

(* Set-up is repeated — at least [setup_min_reps] times and for at least
   [setup_min_s] seconds — and its median reported, so one slow repetition
   does not move the metric. *)
let setup_min_reps = 3
let setup_min_s = 1.0

let repeated_setup f =
  let rec go acc spent n =
    let r, dt = timed_fresh f in
    let acc = dt :: acc and spent = spent +. dt in
    if n + 1 >= setup_min_reps && spent >= setup_min_s then (r, Stats.median acc, n + 1)
    else go acc spent (n + 1)
  in
  go [] 0. 0

(* Declared tail percentiles (recorded in BENCHMARK.json).  The publish
   loop runs in windows of [publish_window] rounds, the smallest at which
   the ten-samples-beyond rule selects both declared levels; each tail is
   taken per window and the median over windows reported. *)
let publish_tail_permille = 900
let read_tail_permille = 990

let publish_window (mix : Publish_wl.mix) =
  max
    (Stats.min_samples ~permille:publish_tail_permille)
    (let per_round = Publish_wl.reads_per_round mix in
     (Stats.min_samples ~permille:read_tail_permille + per_round - 1) / per_round)

let verify_every = 25

type maximize_spec = { m_dataset : string; m_k : int; m_budget : int }

let maximize_gowalla = { m_dataset = "gowalla"; m_k = 8; m_budget = 30 }
let maximize_facebook = { m_dataset = "facebook"; m_k = 10; m_budget = 150 }
let publish_dataset = "gowalla"
let probe_dataset = "gowalla-sample"
let probe_k = (Datasets.Registry.find probe_dataset).Datasets.Registry.default_k
let maximize_probe = { m_dataset = probe_dataset; m_k = probe_k; m_budget = 10 }
let publish_k = (Datasets.Registry.find publish_dataset).Datasets.Registry.default_k

(* {2 End-to-end pieces} *)

(* A run's solves: one session solves PCFR seeds derived from the run seed
   ([seed * 1000003 + i]), each once, in order. *)
type solver = {
  spec : maximize_spec;
  g : Graphcore.Graph.t;
  before : (Graphcore.Edge_key.t, unit) Hashtbl.t;
  run_seed : int;
  mutable times : float list;
  mutable scores : int list;  (** newest first *)
  mutable s_attempted : int;
  mutable s_failed : int;
  mutable elapsed : float;
}

let pcfr_seed ~seed i = (seed * 1_000_003) + i

let solver spec ~g ~seed =
  {
    spec;
    g;
    before = Maximize_wl.truss_before ~g ~k:spec.m_k;
    run_seed = seed;
    times = [];
    scores = [];
    s_attempted = 0;
    s_failed = 0;
    elapsed = 0.;
  }

(* Solve the next seed, timed from a compacted heap and checked outside
   the timed region. *)
let solve_next s =
  let k = s.spec.m_k and budget = s.spec.m_budget in
  let seed = pcfr_seed ~seed:s.run_seed s.s_attempted in
  let sol, dt = timed_fresh (fun () -> Maximize_wl.solve ~seed ~g:s.g ~k ~budget) in
  s.elapsed <- s.elapsed +. dt;
  s.times <- dt :: s.times;
  s.scores <- sol.Maximize_wl.score :: s.scores;
  s.s_attempted <- s.s_attempted + 1;
  if not (Maximize_wl.check ~g:s.g ~before:s.before ~k ~budget sol) then
    s.s_failed <- s.s_failed + 1

let mean_int xs = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

(* [score] is the mean over the first [score_seeds] seeds, which every run
   solves, so it repeats exactly for a given run seed. *)
let solve_metrics ~score_seeds s =
  let first = List.filteri (fun i _ -> i < score_seeds) (List.rev s.scores) in
  [
    { name = "solve_s"; unit_ = "s"; value = Stats.median s.times };
    { name = "score"; unit_ = "edges"; value = mean_int first };
  ]

let windowed_tail permille windows =
  Stats.median (List.map (Stats.percentile ~permille) windows)

let publish_metrics (l : Publish_wl.loop) =
  let reads = List.map (List.map snd) l.read_s in
  [
    {
      name = "publish_p50_ms";
      unit_ = "ms";
      value = 1e3 *. Stats.median (List.concat l.publish_s);
    };
    {
      name = "publish_tail_ms";
      unit_ = "ms";
      value = 1e3 *. windowed_tail publish_tail_permille l.publish_s;
    };
    { name = "read_p50_us"; unit_ = "us"; value = 1e6 *. Stats.median (List.concat reads) };
    { name = "read_tail_us"; unit_ = "us"; value = 1e6 *. windowed_tail read_tail_permille reads };
    { name = "requests_per_s"; unit_ = "1/s"; value = float_of_int l.requests /. l.wall_s };
  ]

(* The request class at the given per-mille ranks of one window's read
   latencies, or "mixed" when they differ: the median and tail should
   each sit inside one class, away from any class boundary. *)
let class_at reads permilles =
  let a = Array.of_list reads in
  Array.sort (fun (_, x) (_, y) -> Float.compare x y) a;
  let n = Array.length a in
  let classes =
    List.sort_uniq compare
      (List.map (fun p -> fst a.(max 0 (Stats.rank ~permille:p n - 1))) permilles)
  in
  match classes with [ c ] -> Publish_wl.class_name c | _ -> "mixed"

let classes_at (l : Publish_wl.loop) permilles =
  String.concat "," (List.map (fun w -> class_at w permilles) l.read_s)

let publish_notes prefix (l : Publish_wl.loop) =
  [
    (prefix ^ "read_p50_class", classes_at l [ 400; 450; 500; 550; 600 ]);
    (prefix ^ "read_tail_class", classes_at l [ 970; 980; read_tail_permille; 1000 ]);
    (prefix ^ "windows", string_of_int (List.length l.publish_s));
    (prefix ^ "publish_samples", string_of_int (List.length (List.concat l.publish_s)));
    (prefix ^ "read_samples", string_of_int (List.length (List.concat l.read_s)));
    (prefix ^ "rounds", string_of_int l.rounds);
  ]

(* A fresh store on [g] and the client's mirror of it. *)
let publish_store g = Service.Store.create (Service.Epoch.create g)

let publish_session ~g ~k ~seed =
  let store = publish_store g in
  let m = Publish_wl.mirror_of g in
  let window = publish_window (Publish_wl.mix ~k) in
  Publish_wl.start ~seed ~store ~m ~k ~window ~verify_every

(* {2 Untraced workloads}

   Each workload reports the end-to-end metrics of the path it does not
   take from a small fixed probe on gowalla-sample.  The probe's work is
   spread in small steps between the workload's own units of work, so it
   samples the same stretch of time as the rest of the run. *)

let peak_heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  { name = "peak_heap_mb"; unit_ = "MB"; value = float_of_int (words * (Sys.word_size / 8)) /. 1e6 }

let setup_metric setup_s = { name = "setup_s"; unit_ = "s"; value = setup_s }

(* Maximize: at least [score_seeds] solves, then on until [seconds] of
   solving.  The publish probe: [probe_windows] windows of the closed loop,
   paced to the solving time done so far.  Each window runs on a fresh
   store: on the small graph, three windows of batches would churn a
   quarter of the edges and drift the onion work with the seed. *)
let score_seeds = 6
let probe_windows = 3

let solve_notes prefix s =
  [
    (prefix ^ "solve_samples", string_of_int s.s_attempted);
    (prefix ^ "scores", String.concat "," (List.map string_of_int (List.rev s.scores)));
  ]

let maximize_untraced spec ~seed ~seconds =
  let g, setup_s, setup_reps = repeated_setup (fun () -> dataset spec.m_dataset) in
  let solver = solver spec ~g ~seed in
  let probe =
    let g = dataset probe_dataset in
    List.init probe_windows (fun w -> publish_session ~g ~k:probe_k ~seed:(pcfr_seed ~seed w))
  in
  let window = (List.hd probe).Publish_wl.window in
  let probe_rounds = probe_windows * window in
  let done_rounds () = List.fold_left (fun acc p -> acc + p.Publish_wl.rounds) 0 probe in
  let probe_upto target =
    while done_rounds () < min target probe_rounds do
      Publish_wl.step (List.find (fun p -> p.Publish_wl.rounds < window) probe)
    done
  in
  while solver.s_attempted < score_seeds || solver.elapsed < seconds do
    solve_next solver;
    probe_upto (int_of_float (float_of_int probe_rounds *. solver.elapsed /. seconds))
  done;
  probe_upto probe_rounds;
  let probe = Publish_wl.merge (List.map Publish_wl.finish probe) in
  let attempted = solver.s_attempted + probe.Publish_wl.requests in
  let failed = solver.s_failed + probe.Publish_wl.failed in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      (setup_metric setup_s :: solve_metrics ~score_seeds solver)
      @ publish_metrics probe @ [ peak_heap_mb () ];
    notes =
      (("setup_samples", string_of_int setup_reps) :: solve_notes "" solver)
      @ publish_notes "probe_" probe;
  }

(* Publish: whole windows up to the boundary nearest [seconds] of round
   time, at least [publish_min_windows].  The maximize probe: one solve of
   each of [probe_solves] seeds, one every [probe_every] rounds. *)
let publish_min_windows = 1
let probe_solves = 12
let probe_every = 15

let publish_untraced ~seed ~seconds =
  let (g, store), setup_s, setup_reps =
    repeated_setup (fun () ->
        let g = dataset publish_dataset in
        (g, publish_store g))
  in
  let m = Publish_wl.mirror_of g in
  let window = publish_window (Publish_wl.mix ~k:publish_k) in
  let session = Publish_wl.start ~seed ~store ~m ~k:publish_k ~window ~verify_every in
  let probe = solver maximize_probe ~g:(dataset maximize_probe.m_dataset) ~seed in
  let probe_step () = if probe.s_attempted < probe_solves then solve_next probe in
  Publish_wl.run session ~seconds ~min_windows:publish_min_windows ~after_round:(fun rounds ->
      if rounds mod probe_every = 0 then probe_step ());
  while probe.s_attempted < probe_solves do
    probe_step ()
  done;
  let l = Publish_wl.finish session in
  let attempted = l.Publish_wl.requests + probe.s_attempted in
  let failed = l.Publish_wl.failed + probe.s_failed in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      (setup_metric setup_s :: solve_metrics ~score_seeds:probe_solves probe)
      @ publish_metrics l @ [ peak_heap_mb () ];
    notes =
      (("setup_samples", string_of_int setup_reps) :: solve_notes "probe_" probe)
      @ publish_notes "" l;
  }

(* {2 Traced workloads} *)

let safe_div a b = if b = 0. then 0. else a /. b
let median_or_zero = function [] -> 0. | xs -> Stats.median xs

let maximize_layers =
  [
    "truss.decompose";
    "truss.components";
    "score.make_ctx";
    "score.local_ctx";
    "onion.build_h";
    "onion.peel";
    "block_dag.build";
    "flow_plan.sweep";
    "random_interp.interpolate";
    "convert.convert";
    "score.score";
    "dp.solve";
    "score.evaluate_oracle";
  ]

(* Conversion's counts go by the shorter names [convert.calls] and
   [convert.alloc_mw]. *)
let counts_prefix span = if span = "convert.convert" then "convert" else span

(* Per solve: seconds, calls and minor-heap mega-words of each layer, the
   p99 of one conversion, and the two waste ratios. *)
let maximize_layer_metrics layers (c : Maximize_wl.counts) ~replays =
  let per_solve x = safe_div x (float_of_int replays) in
  List.concat_map
    (fun span ->
      let prefix = counts_prefix span in
      [
        { name = span ^ "_s"; unit_ = "s"; value = per_solve (Layers.time_s layers span) };
        {
          name = prefix ^ ".calls";
          unit_ = "count";
          value = per_solve (float_of_int (Layers.calls layers span));
        };
        {
          name = prefix ^ ".alloc_mw";
          unit_ = "Mw";
          value = per_solve (Layers.minor_words layers span /. 1e6);
        };
      ])
    maximize_layers
  @ [
      {
        name = "convert.p99_ms";
        unit_ = "ms";
        value =
          (match Layers.samples layers "convert.convert" with
          | [] -> 0.
          | xs -> 1e3 *. Stats.percentile ~permille:990 xs);
      };
      {
        name = "dp.plans_kept_ratio";
        unit_ = "ratio";
        value = safe_div (float_of_int c.plans_kept) (float_of_int c.plans_generated);
      };
      {
        name = "convert.useful_ratio";
        unit_ = "ratio";
        value = safe_div (float_of_int c.useful_conversions) (float_of_int c.conversions);
      };
    ]

(* Publish layers, each once per batch: median milliseconds and mean
   minor-heap kilo-words per batch. *)
let publish_layers =
  [
    "graph.copy";
    "maintain.batch_update";
    "decompose.patched";
    "index.of_deltas";
    "csr.of_graph";
    "epoch.make";
  ]

(* Read-side layers: (span name, unit scale, unit). *)
let read_layers =
  [
    ("request.parse", 1e6, "us");
    ("request.handle_read.trussness", 1e6, "us");
    ("request.handle_read.truss-query", 1e6, "us");
    ("request.handle_read.onion", 1e6, "us");
    ("epoch.onion_layers", 1e3, "ms");
  ]

let mean_or_zero = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let per_call_kw layers span =
  safe_div (Layers.minor_words layers span /. 1e3) (float_of_int (Layers.calls layers span))

let publish_layer_metrics layers ~levels ~region_edges =
  List.concat_map
    (fun span ->
      [
        {
          name = span ^ "_ms";
          unit_ = "ms";
          value = 1e3 *. median_or_zero (Layers.samples layers span);
        };
        { name = span ^ ".alloc_kw"; unit_ = "kw"; value = per_call_kw layers span };
      ])
    publish_layers
  @ [
      {
        name = "maintain.levels";
        unit_ = "count";
        value = mean_or_zero (List.map float_of_int levels);
      };
      {
        name = "maintain.region_edges";
        unit_ = "count";
        value = mean_or_zero (List.map float_of_int region_edges);
      };
    ]
  @ List.concat_map
      (fun (span, scale, unit_) ->
        [
          {
            name = span ^ "_" ^ unit_;
            unit_;
            value = scale *. median_or_zero (Layers.samples layers span);
          };
          { name = span ^ ".alloc_kw"; unit_ = "kw"; value = per_call_kw layers span };
        ])
      read_layers

(* Coverage: the replay's wall time per replayed unit (a solve, or a
   publish round) that no layer accounts for, and traced over untraced
   wall time for the same work. *)
let coverage_metrics layers ~units ~traced_wall ~untraced_wall =
  [
    {
      name = "layers.unattributed_s";
      unit_ = "s";
      value = safe_div (traced_wall -. Layers.total_s layers) (float_of_int units);
    };
    { name = "trace.overhead"; unit_ = "ratio"; value = safe_div traced_wall untraced_wall };
  ]

(* Solve and replay each seed in turn until [seconds] have passed; every
   replay must reproduce its solve exactly. *)
let maximize_traced spec ~seed ~seconds =
  let g = dataset spec.m_dataset in
  let before = Maximize_wl.truss_before ~g ~k:spec.m_k in
  let layers = Layers.create () in
  let counts = Maximize_wl.new_counts () in
  let untraced_wall = ref 0. and traced_wall = ref 0. and replays = ref 0 and failed = ref 0 in
  while !replays = 0 || !untraced_wall +. !traced_wall < seconds do
    let seed = pcfr_seed ~seed !replays in
    let k = spec.m_k and budget = spec.m_budget in
    let expected, dt_u = timed_fresh (fun () -> Maximize_wl.solve ~seed ~g ~k ~budget) in
    let replayed, dt_t =
      timed_fresh (fun () -> Maximize_wl.replay layers counts ~seed ~g ~k ~budget)
    in
    incr replays;
    untraced_wall := !untraced_wall +. dt_u;
    traced_wall := !traced_wall +. dt_t;
    if
      not
        (Maximize_wl.fidelity ~expected ~replayed
        && Maximize_wl.check ~g ~before ~k ~budget expected)
    then incr failed
  done;
  {
    correct = !failed = 0;
    attempted = !replays;
    failed = !failed;
    metrics =
      maximize_layer_metrics layers counts ~replays:!replays
      @ publish_layer_metrics (Layers.create ()) ~levels:[] ~region_edges:[]
      @ coverage_metrics layers ~units:!replays ~traced_wall:!traced_wall
          ~untraced_wall:!untraced_wall;
    notes = [ ("replays", string_of_int !replays) ];
  }

let publish_traced ~seed ~seconds =
  let g = dataset publish_dataset in
  let store_a = publish_store g and store_b = publish_store g in
  let m = Publish_wl.mirror_of g in
  let layers = Layers.create () in
  let t =
    Publish_wl.run_traced layers ~seed ~store_a ~store_b ~m ~k:publish_k ~seconds
  in
  {
    correct = t.t_failed = 0;
    attempted = t.t_requests;
    failed = t.t_failed;
    metrics =
      maximize_layer_metrics (Layers.create ()) (Maximize_wl.new_counts ()) ~replays:0
      @ publish_layer_metrics layers ~levels:t.levels ~region_edges:t.region_edges
      @ coverage_metrics layers ~units:t.t_rounds ~traced_wall:t.traced_wall_s
          ~untraced_wall:t.untraced_wall_s;
    notes = [ ("rounds", string_of_int t.t_rounds) ];
  }

(* {2 Registry} *)

type workload = {
  name : string;
  untraced : seed:int -> seconds:float -> report;
  traced : seed:int -> seconds:float -> report;
}

let all =
  [
    {
      name = "maximize-gowalla";
      untraced = maximize_untraced maximize_gowalla;
      traced = maximize_traced maximize_gowalla;
    };
    {
      name = "maximize-facebook";
      untraced = maximize_untraced maximize_facebook;
      traced = maximize_traced maximize_facebook;
    };
    { name = "publish-gowalla"; untraced = publish_untraced; traced = publish_traced };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
