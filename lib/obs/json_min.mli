(** Minimal zero-dependency JSON value type, parser and string escaper,
    shared by the observability exporters ([Obs]), the bench harness's
    performance-baseline reader ([Perf_baseline]) and the
    [maxtruss obsdiff] subcommand.

    Scope: everything our own exporters emit — objects, arrays, strings
    with the standard escapes (including [\uXXXX] with surrogate pairs,
    decoded to UTF-8; unpaired surrogates are rejected), numbers,
    booleans and null.  Duplicate object keys keep their first occurrence
    under {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of a complete document; the error string carries a byte
    offset. *)

val escape : string -> string
(** Escape for embedding inside a double-quoted JSON string: quote,
    backslash, and control characters (["\n"], ["\t"], ["\r"] named, the
    rest as [\u00XX]). *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup; [None] if the value is not an object or lacks the key. *)

val to_num : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_arr : t -> t list option
val to_obj : t -> (string * t) list option

val num_or : float -> t option -> float
(** [num_or d v] is the number in [v], or [d] when absent/non-numeric;
    convenience for optional schema fields. *)
