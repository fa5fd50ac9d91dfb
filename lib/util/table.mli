(** Plain-text column-aligned table rendering for the experiment harness. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] makes an empty table; [aligns] defaults to all [Left]
    and must match the header arity when given. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] on arity mismatch. *)

val print : t -> unit
(** [print t] writes [render t] to standard output. *)
