(* A BGP route, for the purposes of origin validation: an IP prefix and the
   AS that originates it (exactly the paper's definition in Section 2). *)

open Rpki_ip

type t = { prefix : V4.Prefix.t; origin : int }

let make prefix origin = { prefix; origin }

let to_string t = Printf.sprintf "(%s, AS%d)" (V4.Prefix.to_string t.prefix) t.origin
