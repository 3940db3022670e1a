(* JSON rendering of a report: the run-metadata line and the result line
   whose keys the benchmark contract fixes. *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.number: not finite"

let quote s = "\"" ^ String.escaped s ^ "\""

let meta_json fields =
  "{\"run\":{"
  ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ quote v) fields)
  ^ "}}"

let result_json (r : Workloads.report) =
  let metrics =
    List.map
      (fun (m : Workloads.metric) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (quote m.name) (number m.value)
          (quote m.unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" r.correct
    r.attempted r.failed (String.concat "," metrics)
