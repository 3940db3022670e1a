type t = { value : int; source_side : bool array }

let c_cuts = Obs.Counter.make "min_cut.computations"

let c_cut_value = Obs.Counter.make "min_cut.cut_value_total"

let g_last_cut = Obs.Gauge.make "min_cut.last_cut_value"

let record value =
  Obs.Counter.incr c_cuts;
  Obs.Counter.add c_cut_value value;
  Obs.Gauge.set_int g_last_cut value

let compute net ~s ~t =
  let value = Dinic.max_flow net ~s ~t in
  record value;
  let n = Flow_network.num_nodes net in
  let side = Array.make n false in
  let queue = Queue.create () in
  side.(s) <- true;
  Queue.push s queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Flow_network.iter_arcs_from net v (fun id ->
        let d = Flow_network.arc_dst net id in
        if Flow_network.arc_cap net id > 0 && not side.(d) then begin
          side.(d) <- true;
          Queue.push d queue
        end)
  done;
  { value; source_side = side }

let compute_max net ~s ~t =
  let value = Dinic.max_flow net ~s ~t in
  record value;
  let n = Flow_network.num_nodes net in
  (* Reverse BFS from t: x reaches t through residual arc (x, w) iff that
     arc — stored as the twin of some arc leaving w — has capacity left.
     The set of nodes that reach t is the same for every maximum flow (the
     min-cut family forms a lattice), so the complement is the maximal
     minimum source side whichever maximum flow Dinic found. *)
  let reaches_t = Array.make n false in
  reaches_t.(t) <- true;
  let queue = Queue.create () in
  Queue.push t queue;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    Flow_network.iter_arcs_from net w (fun id ->
        (* the twin runs arc_dst id -> w; residual capacity there lets
           arc_dst id reach t through w *)
        let d = Flow_network.arc_dst net id in
        if Flow_network.arc_cap net (id lxor 1) > 0 && not reaches_t.(d) then begin
          reaches_t.(d) <- true;
          Queue.push d queue
        end)
  done;
  { value; source_side = Array.map not reaches_t }

let cut_arcs net cut =
  let acc = ref [] in
  let n = Flow_network.num_nodes net in
  for v = 0 to n - 1 do
    if cut.source_side.(v) then
      Flow_network.iter_arcs_from net v (fun id ->
          (* Only original forward arcs (even ids) count as cut members. *)
          if id land 1 = 0 && not cut.source_side.(Flow_network.arc_dst net id) then
            acc := id :: !acc)
  done;
  !acc
