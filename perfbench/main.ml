(* The repository benchmark's entry point (see BENCHMARK.json):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a summary, one line of run metadata, and as its last line one
   JSON object {"correct", "attempted", "failed", "metrics"}.  It exits 1
   when any correctness check failed and 2 on bad arguments. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload maximize-gowalla|maximize-facebook|publish-gowalla --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0. -> (w, s, sec, t)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  (* The shipped default: one domain.  Replay fidelity is defined there. *)
  Par.set_domains 1;
  let r =
    match Workloads.find workload with
    | None -> usage ()
    | Some w ->
      if trace then w.Workloads.traced ~seed ~seconds else w.Workloads.untraced ~seed ~seconds
  in
  List.iter
    (fun (m : Workloads.metric) -> Printf.printf "%-40s %14.6g %s\n" m.name m.value m.unit_)
    r.Workloads.metrics;
  print_endline
    (Report.meta_json
       ([
          ("workload", workload);
          ("seed", string_of_int seed);
          ("trace", if trace then "1" else "0");
          ("par_domains", string_of_int (Par.domains ()));
          ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ("ocaml", Sys.ocaml_version);
        ]
       @ r.Workloads.notes));
  print_endline (Report.result_json r);
  if not r.Workloads.correct then exit 1
