(** The rollback adversary: replay a genuinely old publication-point state
    to a restarted relying-party vantage.

    Unlike {!Split_view}, nothing is forged: the adversary captures the
    authority's honest state before a revocation and later serves those
    authentic bytes — old manifest number, old signatures — to the victim.
    A victim with no persisted transparency baseline (the fresh-start
    oracle) accepts the past as the present, and content cross-checks with
    peers agree, because honest vantages once recorded exactly this state.
    Detection requires {e history}: a restored own log (local
    {!Rpki_repo.Relying_party.regression}) or peers' memory of the point's
    serial line (a gossip {!Rpki_repo.Gossip.alarm.Rollback}). *)

open Rpki_repo

type t

val plan : authority:Authority.t -> t
(** Target an authority's publication point.  Nothing is captured yet. *)

val capture : t -> now:int -> unit
(** Freeze the authority's current publication-point state verbatim — the
    past that will be replayed.  Call while the state is still honest
    (before the revocation the adversary wants undone). *)

val apply : t -> Transport.t -> unit
(** Serve the frozen capture to the victim whose transport this is.  Raises
    [Invalid_argument] if nothing was captured. *)

val describe : t -> string
