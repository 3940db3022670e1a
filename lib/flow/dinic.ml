let c_bfs_phases = Obs.Counter.make "dinic.bfs_phases"

let c_aug_paths = Obs.Counter.make "dinic.augmenting_paths"

let c_max_flows = Obs.Counter.make "dinic.max_flow_calls"

(* Everything runs on the frozen CSR layout: BFS over a flat ring buffer,
   blocking flow by an explicit-stack DFS with an integer cursor array
   (cur.(v) indexes the next adjacency slot to try, so saturated arcs are
   never rescanned within a phase).  All scratch arrays are allocated once
   per call and recycled across phases — a phase costs two Array
   fills/blits, never an allocation.  The explicit stack also means level
   graphs as deep as the node count cannot overflow the OCaml stack, which
   the previous recursive formulation could on long-path networks. *)
let max_flow net ~s ~t =
  if s = t then invalid_arg "Dinic.max_flow: source equals sink";
  Obs.Counter.incr c_max_flows;
  let { Flow_network.i_dst = dst; i_cap = cap; i_first_out = fo; i_adj = adj } =
    Flow_network.internals net
  in
  let n = Flow_network.num_nodes net in
  let level = Array.make n (-1) in
  let queue = Array.make n 0 in
  let cur = Array.make n 0 in
  let path = Array.make n 0 in
  let flow = ref 0 in
  let continue_phases = ref true in
  while !continue_phases do
    Obs.Counter.incr c_bfs_phases;
    (* Level graph by BFS over residual arcs. *)
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = Array.unsafe_get queue !head in
      incr head;
      let lv = Array.unsafe_get level v + 1 in
      for i = Array.unsafe_get fo v to Array.unsafe_get fo (v + 1) - 1 do
        let id = Array.unsafe_get adj i in
        let d = Array.unsafe_get dst id in
        if Array.unsafe_get cap id > 0 && Array.unsafe_get level d < 0 then begin
          Array.unsafe_set level d lv;
          Array.unsafe_set queue !tail d;
          incr tail
        end
      done
    done;
    if level.(t) < 0 then continue_phases := false
    else begin
      (* Blocking flow: iterative DFS along admissible arcs.  [path] holds
         the arc ids from [s] to the current node [v]; cur.(u) always
         points at the adjacency slot of the arc currently on the path (or
         the next slot to try), so popping can skip it in O(1). *)
      Array.blit fo 0 cur 0 n;
      let plen = ref 0 in
      let v = ref s in
      let running = ref true in
      while !running do
        if !v = t then begin
          (* Augment along [path] by its bottleneck, then retreat to the
             shallowest saturated arc. *)
          let limit = ref max_int in
          for i = 0 to !plen - 1 do
            let c = Array.unsafe_get cap (Array.unsafe_get path i) in
            if c < !limit then limit := c
          done;
          for i = 0 to !plen - 1 do
            let id = Array.unsafe_get path i in
            Array.unsafe_set cap id (Array.unsafe_get cap id - !limit);
            let twin = id lxor 1 in
            Array.unsafe_set cap twin (Array.unsafe_get cap twin + !limit)
          done;
          flow := !flow + !limit;
          Obs.Counter.incr c_aug_paths;
          let i = ref 0 in
          while Array.unsafe_get cap (Array.unsafe_get path !i) > 0 do
            incr i
          done;
          plen := !i;
          v := if !i = 0 then s else Array.unsafe_get dst (Array.unsafe_get path (!i - 1))
        end
        else begin
          let advanced = ref false in
          let scanning = ref true in
          let lv = Array.unsafe_get level !v + 1 in
          let last = Array.unsafe_get fo (!v + 1) in
          while !scanning do
            let c = Array.unsafe_get cur !v in
            if c >= last then scanning := false
            else begin
              let id = Array.unsafe_get adj c in
              let d = Array.unsafe_get dst id in
              if Array.unsafe_get cap id > 0 && Array.unsafe_get level d = lv then begin
                Array.unsafe_set path !plen id;
                incr plen;
                v := d;
                advanced := true;
                scanning := false
              end
              else Array.unsafe_set cur !v (c + 1)
            end
          done;
          if not !advanced then begin
            if !plen = 0 then running := false
            else begin
              (* Dead end: pop the arc that led here and skip it at its
                 tail (cur.(u) still points at that arc's slot). *)
              decr plen;
              let id = Array.unsafe_get path !plen in
              let u = Array.unsafe_get dst (id lxor 1) in
              Array.unsafe_set cur u (Array.unsafe_get cur u + 1);
              v := u
            end
          end
        end
      done
    end
  done;
  !flow
