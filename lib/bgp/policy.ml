(* Relying-party local policies (Section 5 of the paper).

   The two plausible policies suggested by RFC 6483, plus the pre-RPKI
   baseline.  Table 6 is the tradeoff between the first two. *)

type t =
  | Drop_invalid    (* never select an invalid route *)
  | Depref_invalid  (* prefer valid > unknown > invalid, but still usable *)
  | Ignore_rpki     (* route as if the RPKI did not exist *)

let to_string = function
  | Drop_invalid -> "drop invalid"
  | Depref_invalid -> "depref invalid"
  | Ignore_rpki -> "ignore RPKI"

let all = [ Drop_invalid; Depref_invalid; Ignore_rpki ]

(* Rank used during route selection when the policy is validity-aware. *)
let validity_rank (s : Rpki_core.Origin_validation.state) =
  match s with Valid -> 2 | Unknown -> 1 | Invalid -> 0
