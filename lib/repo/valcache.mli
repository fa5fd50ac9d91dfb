(** The shared validation plane: a content-addressed verification cache
    consulted by every relying-party vantage in a simulation tick.

    Two memo layers, both keyed purely by content: RSA signature verdicts
    under [(issuer key id, SHA-256 of signature + message)], and whole
    publication-point validation outcomes under [(issuing certificate
    digest, listing fingerprint)] guarded by the validity-window boundaries
    the original validation consulted.

    Split-view safety is structural: a forked manifest changes the victim's
    listing fingerprint, so victim and honest vantages key to different
    cache lines and the cache can never merge the two views.  Transport
    accounting, transparency observations and gossip evidence stay
    per-vantage — cache hits skip crypto, never transport. *)

open Rpki_core

type t
(** The shared cache.  One instance serves any number of relying parties;
    sharing is transparent (same results as independent validation). *)

val create : unit -> t

val clear : t -> unit
(** The operator's wipe: drop every memoized verdict and outcome and reset
    all statistics, eviction counters included.  Distinct from {!evict} —
    a wipe zeroes the counters, so it can never masquerade as eviction in a
    bench. *)

(** {2 Publication-point outcomes} *)

type outcome = {
  o_parent_fp : string;
      (** SHA-256 of the bytes the issuing certificate was decoded from: the
          parent outcome's [o_children] entry, or the trust anchor's
          fetched file.  For canonical DER that is the digest of
          [Cert.encode]; an encoding the decoder accepts but would not
          write gets a cache line of its own: a finer key, so still sound *)
  o_snap_fp : string;       (** fingerprint of the listing validated *)
  o_at : Rtime.t;           (** when it was validated *)
  o_boundaries : Rtime.t list;  (** every validity boundary consulted *)
  o_vrps : Vrp.t list;      (** the point's direct VRP contribution *)
  o_vrp_hash : string;
      (** the canonical digest of [o_vrps] (sorted, deduplicated), made once
          by the validation that produced the outcome; transparency
          observations and gossip evidence carry it *)
  o_issues : (string option * Validation.issue_kind * string) list;
      (** (filename, kind, reason) — deliberately URI-free: the outcome is a
          function of content only, and each relying party re-attaches its
          own URI when replaying *)
  o_failed_resources : Resources.t;
      (** resources claimed by child CA certificates that failed validation
          at this point — the unsafe-VRP analysis' per-point contribution,
          a pure function of content like everything else here *)
  o_children : (Cert.t * string) list;
      (** validated child CA certs, in file order, each with the SHA-256 of
          the bytes it was decoded from — the child point's [o_parent_fp] *)
  o_mft_number : int;       (** manifest number as served; 0 if none *)
  o_mft_hash : string;      (** SHA-256 of the manifest bytes; "" if none *)
}
(** The full validation outcome of one publication point under one issuing
    certificate — what the relying party's per-vantage memo stores, minus
    anything vantage-specific. *)

val side : Rtime.t -> Rtime.t -> bool
(** [side now b]: whether [now] is before boundary [b].  A boundary is the
    first instant at which a time predicate of validation changes its
    answer, so two instants on the same side of every boundary of an
    outcome read the same answers. *)

val outcome_current : outcome -> now:Rtime.t -> bool
(** Whether the outcome is replayable at [now]: true when [now] sits on the
    same {!side} of every boundary in [o_boundaries] as [o_at] did. *)

val find_point : t -> parent_fp:string -> snap_fp:string -> now:Rtime.t -> outcome option
(** A memoized outcome for this (issuing certificate, listing) pair, if one
    exists and is replayable at [now]. *)

val store_point : t -> outcome -> unit
(** Memoize an outcome under its own [(o_parent_fp, o_snap_fp)] key. *)

(** {2 RSA verdicts} *)

val verify : t -> key:Rpki_crypto.Rsa.public -> signature:string -> string -> bool
(** A memoizing {!Rpki_crypto.Rsa.verify}: the first call for a given
    (key, signature, message) executes the real verification, later calls
    replay the verdict.  Shaped to slot into {!Validation}'s [?verify]
    hook. *)

(** {2 The batch scheduler's tick boundary} *)

val universe_digest : Universe.t -> string
(** One digest over every publication point's URI and content fingerprint.
    Only the benchmark's tick replica computes it, for {!begin_tick}. *)

val begin_tick : ?digest:string -> t -> unit
(** Mark a tick boundary: snapshot the statistics baseline {!tick_stats}
    diffs against, and record [digest] (default [""]), which nothing
    reads.  Memoized content is kept — entries are content-addressed, so
    stale ones can only miss. *)

(** {2 Epoch-based eviction} *)

val evict : t -> now:Rtime.t -> unit
(** Drop exactly the entries whose every consulted validity boundary is
    at or before [now]: publication-point outcomes all of whose windows
    have closed, and RSA verdicts whose inherited deadline (the latest
    boundary among the outcomes whose validation consulted them) has
    passed.  Pure memo, so eviction can never change results — only re-run
    crypto; entries for live content are untouched. *)

val end_tick : t -> now:Rtime.t -> unit
(** The tick-boundary hook the simulation loop calls after a tick's
    validations finish: currently {!evict}[ ~now]. *)

type residency = {
  rs_verdicts : int;          (** memoized verdicts currently resident *)
  rs_outcomes : int;          (** point outcomes currently resident *)
  rs_verdicts_evicted : int;  (** cumulative verdicts dropped by {!evict} *)
  rs_outcomes_evicted : int;  (** cumulative outcomes dropped by {!evict} *)
}

val residency : t -> residency
(** Current table sizes and cumulative eviction counts — the flat-memory
    evidence the soak bench records. *)

(** {2 Statistics} *)

type stats = {
  sig_checked : int;   (** RSA verifications executed through the cache *)
  sig_saved : int;     (** verifications answered from a memoized verdict *)
  point_hits : int;    (** publication-point outcomes replayed *)
  point_misses : int;  (** outcomes validated from scratch *)
}

val stats : t -> stats
(** Cumulative since creation (or the last {!clear}). *)

val tick_stats : t -> stats
(** Since the last {!begin_tick}. *)
