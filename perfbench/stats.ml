(* Order statistics for the benchmark's reports.

   Percentiles use the nearest-rank definition on per-mille levels, so the
   tail rule below is exact integer arithmetic: the p-th percentile of n
   samples is the sample of rank ceil(p * n / 1000), and the samples
   "beyond" it are the n - rank samples ranked above it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~permille n = ((permille * n) + 999) / 1000

let percentile ~permille xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (rank ~permille n - 1))

(* Midpoint median: steadier than the nearest-rank p50 on the handful of
   solves a maximize run can afford. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let beyond ~permille n = n - rank ~permille n

(* Candidate tail levels, highest first: p99.9, p99.5, p99, p95, p90, p80,
   p75, p50. *)
let ladder = [ 999; 995; 990; 950; 900; 800; 750; 500 ]

let tail_permille n = List.find_opt (fun p -> beyond ~permille:p n >= 10) ladder

(* Smallest sample count at which [permille] has ten samples beyond it. *)
let min_samples ~permille =
  let rec go n = if beyond ~permille n >= 10 then n else go (n + 1) in
  go 10
