(** Relying-party local policies (the paper's Section 5).

    The two plausible policies suggested by RFC 6483, plus the pre-RPKI
    baseline.  Table 6 is the tradeoff between the first two. *)

type t =
  | Drop_invalid    (** never select an invalid route *)
  | Depref_invalid  (** prefer valid > unknown > invalid, but still usable *)
  | Ignore_rpki     (** route as if the RPKI did not exist *)

val to_string : t -> string
val all : t list

val validity_rank : Rpki_core.Origin_validation.state -> int
(** The ranking used by validity-aware route selection: valid 2, unknown 1,
    invalid 0. *)
