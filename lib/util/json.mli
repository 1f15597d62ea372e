(** Minimal JSON tree: enough to emit and re-read the observability
    artifacts (Chrome traces, JSONL event streams, run reports)
    without an external dependency.

    The printer always produces valid JSON (non-finite floats become
    [null]); the parser accepts the full JSON grammar, including
    [\uXXXX] escapes and surrogate pairs, and rejects trailing
    garbage.  Numbers without a fraction or exponent parse as {!Int}
    when they fit in a native [int], as {!Float} otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [pretty] (default [false]) adds two-space indentation
    and newlines; compact output has no whitespace at all. *)

val add_escaped : Buffer.t -> string -> unit
(** Append a string's JSON escape, without the surrounding quotes:
    quote, backslash, newline, carriage return, tab, backspace and
    form feed take their two-byte escapes, the other control bytes a
    six-byte [\u00XX] one, and every other byte is copied as is.
    {!to_string} escapes strings with it; hand-rendered JSON (the
    daemon's access log) uses it too. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Parse one JSON document; [Error] carries a message with the byte
    offset of the failure.  Containers nested deeper than [max_depth]
    (default 512) are an explicit parse error instead of a
    [Stack_overflow], so adversarial ["[[[[…"] input cannot escape the
    [result] contract. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on a missing key or a
    non-object. *)

val to_int_opt : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float_opt : t -> float option
(** [Float] and [Int]. *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option
