(** The trussness index now lives in {!Decompose}, beside the trussness
    table it orders.  This module selects nothing: it is kept solely for
    the frozen benchmark call site in [perfbench/publish_wl.ml]. Other
    callers use {!Decompose} directly. *)

open Graphcore

type t = Decompose.t

val of_deltas : t -> changes:(Edge_key.t * int option) list -> t
(** {!Decompose.patched}. *)
