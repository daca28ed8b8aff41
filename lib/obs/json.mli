(** A minimal JSON value type with a stable printer and a parser.

    Kept dependency-free on purpose: the observability surface must not
    pull a JSON library into the core.  The printer is {e stable} —
    object members are emitted in the order given, floats with enough
    digits to round-trip exactly — so two identical runs produce
    byte-identical documents and golden tests can diff them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members, in emission order *)

val to_string : ?indent:bool -> t -> string
(** Serialize.  [indent] (default [true]) pretty-prints with two-space
    indentation; either form parses back with {!of_string}. *)

val to_buffer : ?indent:bool -> ?depth:int -> Buffer.t -> t -> unit
(** [to_string], appended to a buffer.  [depth] (default 0) prints the
    value as a member or item nested [depth] levels deep in an indented
    document, to stream a document whose parts are printed one at a
    time: its inner lines are indented to match, and it gets no
    trailing newline, which only a whole document (depth 0) ends with. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error msg] carries a byte offset. *)

(** {1 Accessors} ([None] on shape mismatch) *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** Accepts both [Int] and [Float] facts, as JSON does not distinguish. *)

val to_str : t -> string option
val to_obj : t -> (string * t) list option
val to_list : t -> t list option
