(* Per-layer accounting for the traced run: wall time, call count and
   minor-heap allocation measured around each public call the replay
   makes.  Spans are flat — the replay never times a call inside another
   timed call — so their sum never exceeds the replay's wall time and the
   difference is the unattributed remainder. *)

type acc = {
  mutable time_s : float;
  mutable calls : int;
  mutable minor_words : float;
  mutable samples : float list;  (** seconds per call, newest first *)
}

type t = (string, acc) Hashtbl.t

(* Seconds on the monotonic clock, at nanosecond resolution: the read-side
   layers take microseconds, below [Unix.gettimeofday]'s resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () : t = Hashtbl.create 32

let acc (t : t) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
    let a = { time_s = 0.; calls = 0; minor_words = 0.; samples = [] } in
    Hashtbl.replace t name a;
    a

let time t name f =
  let a = acc t name in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  a.minor_words <- a.minor_words +. (Gc.minor_words () -. w0);
  a.time_s <- a.time_s +. dt;
  a.calls <- a.calls + 1;
  a.samples <- dt :: a.samples;
  r

let find t name = Hashtbl.find_opt t name

let total_s t = Hashtbl.fold (fun _ a s -> s +. a.time_s) t 0.

let time_s t name = match find t name with Some a -> a.time_s | None -> 0.
let calls t name = match find t name with Some a -> a.calls | None -> 0
let minor_words t name = match find t name with Some a -> a.minor_words | None -> 0.
let samples t name = match find t name with Some a -> a.samples | None -> []
