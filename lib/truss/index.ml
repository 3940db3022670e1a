type t = Decompose.t

let of_deltas = Decompose.patched
