(** The JSON values the experiments export, and their one writer.  The
    writer puts no whitespace between tokens. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (n, x)] prints [x] as [Printf "%.nf"] does; a non-finite
          [x] prints [null] *)
  | String of string
      (** a double quote or backslash is escaped with a backslash, each
          byte below 0x20 as [\u00XX]; every other byte, UTF-8 included,
          is written as it is *)
  | List of t list
  | Object of (string * t) list  (** members in the order given *)

val int : int -> t
val string : string -> t

val list : ('a -> t) -> 'a list -> t
(** [list f xs] is [List (List.map f xs)]. *)

val option : ('a -> t) -> 'a option -> t
(** [f x] for [Some x], [Null] for [None]. *)

val to_string : t -> string
