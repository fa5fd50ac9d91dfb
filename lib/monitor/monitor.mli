(** RPKI monitoring: detecting manipulations from repository snapshots.

    The paper poses as an open problem "the design of monitoring schemes
    that deter RPKI manipulations by detecting suspiciously reissued
    objects".  This monitor diffs consecutive snapshots of every publication
    point — purely syntactically, no trust anchors needed — and classifies
    changes: overt revocations, stealthy removals (Side Effect 2), RC
    shrinking (Side Effect 3's primitive), and make-before-break signatures
    (Figure 3's tell-tale). *)

open Rpki_core

type decoded_point = {
  uri : string;
  certs : (string * Cert.t) list;
  roas : (string * Roa.t) list;
  crl : Crl.t option;
}

type snapshot = { points : decoded_point list }

val take : now:Rtime.t -> Rpki_repo.Universe.t -> snapshot
(** Snapshot every publication point.  [now] is not recorded: snapshots
    are compared by content only. *)

type severity = Info | Warning | Alarm

type alert = {
  severity : severity;
  uri : string;
  what : string;
}

val pp_alert : Format.formatter -> alert -> unit

val diff : before:snapshot -> after:snapshot -> alert list
(** Classify every change between two snapshots.  Benign churn (renewals,
    refreshes, new issuance, RC growth) stays at [Info]; CRL-backed
    revocations are [Warning]; stealthy removals, RC shrinks and correlated
    make-before-break patterns are [Alarm]. *)

val staleness_alerts :
  ?threshold:int -> Rpki_repo.Relying_party.sync_result -> alert list
(** Freshness monitoring from a relying party's own sync accounting: points
    served via a fallback channel are [Info]; points served from stale cache
    are [Warning], escalating to [Alarm] when the data is older than
    [threshold] ticks (default 2); points with no copy at all — and a sync
    whose fetch budget ran out — are [Alarm].  This catches transport-level
    downgrade (a Stalloris-style stalling adversary, or an authority outage)
    that a content diff cannot see, since every published object still
    verifies. *)

val gossip_alerts : Rpki_repo.Gossip.alarm list -> alert list
(** Cross-vantage monitoring from the transparency layer: every
    {!Rpki_repo.Gossip.alarm} becomes an [Alarm]-severity alert (fork and
    rollback evidence is cryptographic, not heuristic), except
    {!Rpki_repo.Gossip.alarm.Log_reset} — a lost baseline, not proof of
    misbehavior — which surfaces as a [Warning].  This is the detector for
    the manipulations neither a content diff nor freshness accounting can
    see: a split view, or a rewritten past served to a restarted vantage. *)

val alarms : alert list -> alert list
val warnings : alert list -> alert list
