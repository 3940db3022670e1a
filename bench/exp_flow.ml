(* The g-sweep, checked against rebuilt cuts.

   Builds the block DAGs of every (k-1)-class component of the kernel
   dataset (gowalla), times the full two-(w1,w2) sweep menu (each probe
   builds and solves its network from scratch), then checks every selection
   against the cut at the selection's own g: the selection must be that
   cut, or that cut minus exactly one sink-adjacent block (a leaf-drop
   variant), with the cut's value and an h_score that sums its blocks.

   The @bench-smoke alias runs this experiment under --obs with
   --assert-counter flow_plan.g_probes. *)

let dataset = "gowalla"

let w_pairs = [ (1, 1); (1, 10) ]

let build_dags g k =
  let dec = Truss.Decompose.run g in
  let comps = Truss.Connectivity.components ~g ~dec ~lo:(k - 1) ~hi:k in
  let ctx = Maxtruss.Score.make_ctx g ~k in
  List.map
    (fun comp ->
      let h = Truss.Onion.build_h ~g ~backdrop:ctx.Maxtruss.Score.old_truss ~candidates:comp in
      let onion = Truss.Onion.peel ~h ~k ~candidates:comp () in
      Maxtruss.Block_dag.build ~h ~dec ~k ~component:comp ~onion)
    comps

let sweep_all ~probes dags =
  List.concat_map
    (fun dag ->
      List.concat_map
        (fun (w1, w2) ->
          List.map
            (fun sel -> (dag, w1, w2, sel))
            (Maxtruss.Flow_plan.sweep ~dag ~w1 ~w2 ~probes ()))
        w_pairs)
    dags

let explained (dag, w1, w2, (sel : Maxtruss.Flow_plan.selection)) =
  let open Maxtruss.Flow_plan in
  let cut = min_cut_selection ~dag ~w1 ~w2 ~g:sel.g_param in
  let leaf_drop =
    List.exists
      (fun b ->
        dag.Maxtruss.Block_dag.base_sink.(b) > 0
        && List.filter (( <> ) b) cut.blocks = sel.blocks)
      cut.blocks
  in
  (sel.blocks = cut.blocks || leaf_drop)
  && sel.cut_value = cut.cut_value
  && sel.h_score
     = List.fold_left (fun acc b -> acc + Maxtruss.Block_dag.size dag b) 0 sel.blocks

let run () =
  let g = Exp_common.dataset dataset in
  let k = Exp_common.default_k dataset in
  let dags = build_dags g k in
  let probes = 10 in
  let reps = Exp_common.pick ~quick:3 ~full:10 in
  Printf.printf "g-sweep (%s, k=%d, %d DAGs, %d probes, %d reps):\n" dataset k
    (List.length dags) probes reps;
  let sels = ref [] in
  let _, t =
    Exp_common.time (fun () ->
        for _ = 1 to reps do
          sels := sweep_all ~probes dags
        done)
  in
  if not (List.for_all explained !sels) then begin
    Printf.eprintf "flowsweep: a selection is neither a rebuilt cut nor a leaf drop of one!\n";
    exit 1
  end;
  Printf.printf "%-24s %10s\n" "sweep time" (Exp_common.fmt_time t.Exp_common.seconds);
  Printf.printf "%d selections, each a rebuilt cut or a leaf drop of one\n" (List.length !sels)
