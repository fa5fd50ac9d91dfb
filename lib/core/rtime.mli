(** Simulation time: abstract integer ticks.

    The RPKI cares about time only through validity windows (notBefore /
    notAfter, thisUpdate / nextUpdate).  One tick reads as "an hour" in the
    experiment narratives, but nothing depends on the unit. *)

type t = int

val epoch : t
val add : t -> int -> t
val diff : t -> t -> int
val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val year : int
(** Common validity horizons used by issuers, in ticks. *)

val month : int
val day : int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
