(** A BGP route for the purposes of origin validation: an IP prefix and the
    AS that originates it (the paper's Section 2 definition). *)

open Rpki_ip

type t = { prefix : V4.Prefix.t; origin : int }

val make : V4.Prefix.t -> int -> t
val to_string : t -> string
