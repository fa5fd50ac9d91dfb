(** The Stalloris-style stalling adversary (Hlavacek et al., USENIX Security
    2022, in this paper's misbehaving-authority setting).

    Where {!Whack} manipulates repository {e content}, Stall manipulates the
    {e transport}: targeted publication points are served at a trickle —
    every request would complete, but only after [intensity] times the
    honest transfer time, which a sane per-request timeout cuts short.
    Against a relying party with patient timeouts and eager retries
    ({!Rpki_repo.Relying_party.naive_policy}) one stalled point exhausts the
    sync budget, the rest of the RPKI goes unfetched, and once cached
    objects' validity windows lapse the RP degrades toward an empty VRP set
    — an RPKI downgrade without touching a single signed object.  Bounded
    retries plus mirror/RRDP fallback
    ({!Rpki_repo.Relying_party.resilient_policy}) confine the damage. *)

open Rpki_repo

type t
(** An immutable stalling campaign: targets plus intensity. *)

val plan : targets:string list -> intensity:int -> t
(** Throttle the given publication-point URIs by [intensity] (transfer-time
    multiplier, >= 1).  Raises [Invalid_argument] on an empty target list or
    nonsensical intensity. *)

val plan_against : victim:Authority.t -> intensity:int -> t
(** Target the victim authority's whole subtree: its publication point and
    every descendant's — the points a relying party must keep fresh for the
    victim's ROAs to stay validated. *)

val targets : t -> string list

val apply : t -> Transport.t -> unit
(** Install a [Stalling intensity] fault on every target. *)

val lift : t -> Transport.t -> unit
(** End the campaign.  Only faults this plan installed are cleared; a fault
    someone else re-marked meanwhile is left alone. *)
