(* Simulation time.

   The RPKI cares about time only through validity windows (notBefore /
   notAfter, thisUpdate / nextUpdate).  We model time as abstract integer
   ticks — one tick is "an hour" in the experiment narratives, but nothing
   depends on the unit. *)

type t = int

let epoch : t = 0
let add t n : t = t + n
let diff a b = a - b
let compare = Int.compare
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

(* Common validity horizons used by issuers. *)
let year = 24 * 365
let month = 24 * 30
let day = 24

let pp fmt t = Format.fprintf fmt "t+%d" t
let to_string t = Printf.sprintf "t+%d" t
