(** The relying party: fetches the distributed RPKI and computes the set of
    validated ROA payloads (RFC 6480 section 6, RFC 6483).

    Fetching goes through an explicit {!Transport}: every request costs
    transport time (in the closed-loop simulation that cost is derived from
    the RP's own BGP data plane — the paper's Section 6 circularity expressed
    as latency) and a publication point may be slow, stalling or unreachable.
    A {!fetch_policy} governs how the RP spends that time: per-point timeout,
    total sync budget, bounded retries with deterministic backoff, and a
    fallback ladder live -> mirror -> RRDP -> stale cache.  Whatever channel
    ultimately served each point — and how stale its data was — is recorded
    as a {!transfer} on the sync result.

    Sync is incremental: per publication point the RP memoizes the
    validation outcome keyed by the point's content fingerprint, the
    issuing certificate, and the validity windows consulted; unchanged
    points are not re-validated, and inside a changed point only the
    manifest, the CRL and the objects whose bytes, window side or
    revocation answer changed are.  Each {!sync} also reports the VRP
    {!Vrp.diff} against the previous sync and maintains an
    {!Origin_validation.index} patched in place by that diff.  A warm sync
    is guaranteed to produce exactly the VRP set and classification results
    of a from-scratch sync; under a zero-latency fault-free transport this
    holds bit-for-bit against the pre-transport behaviour.

    One {!sync} runs three stages over a record that lives only for that
    call: {e fetch} brings each point down the ladder, every attempt on
    any channel one timed request under the budget; the {e walk} goes
    depth first from each trust anchor, replays a point from the memo or
    the shared plane or validates it with {!Point.validate} (replaying
    each unchanged object from its own last validation), and appends
    what it served to the transparency log; the {e commit} takes the union
    of the walked VRPs, applies grace and the unsafe-VRP policy, and diffs
    against the previous sync.  The persisted-state format is
    {!Rp_store}'s; {!save}, {!restore} and {!compact_store} bind it to one
    vantage.

    The relying-party state is opaque; all incremental bookkeeping is
    internal and can only be dropped wholesale via {!flush_cache}. *)

open Rpki_core

type tal = {
  ta_key : Rpki_crypto.Rsa.public;
  ta_uri : string;
  ta_cert_filename : string;
}

val tal_of_authority : Authority.t -> tal
(** The TAL of a trust-anchor authority. *)

type fetch_status =
  | Fetched          (** live copy obtained *)
  | Fetched_mirror   (** primary failed; a mirror served the copy *)
  | Fetched_rrdp     (** primary failed; the RRDP delta service served it *)
  | Stale_cache      (** all channels failed; last-known snapshot used *)
  | Unavailable      (** all channels failed and nothing cached *)

(** What to do with {e unsafe} VRPs — VRPs whose prefix overlaps the
    resources of a CA that failed to fetch or validate this sync
    (Routinator's [--unsafe-vrps] analysis).  Such a VRP may be the last
    surviving cover of address space whose more-specific ROAs just became
    invisible: keeping it can flip routes of the failed CA's customers to
    Invalid, dropping it abandons the covered space to hijack. *)
type unsafe_policy =
  | Unsafe_accept  (** use them unchanged; no analysis is run *)
  | Unsafe_warn    (** use them, but report each as an {!issue} *)
  | Unsafe_reject  (** drop them from the effective set (and report) *)

val unsafe_policy_to_string : unsafe_policy -> string

type fetch_policy = {
  point_timeout : int;  (** cap on any single request, in transport ticks *)
  sync_budget : int;    (** cap on the whole sync's transport time *)
  retries : int;        (** extra live attempts after a stalled request *)
  backoff : int;        (** base backoff between retries; 0 disables it *)
  use_mirrors : bool;
  use_rrdp : bool;
  use_stale : bool;     (** fall back to the last good copy of a point
                            that could not be fetched *)
  unsafe : unsafe_policy;  (** unsafe-VRP handling; [Unsafe_accept] in every
                               canned policy *)
}
(** How the RP spends transport time during one sync. *)

val default_policy : fetch_policy
(** Moderate timeouts, two retries, every fallback channel enabled. *)

val naive_policy : fetch_policy
(** The Stalloris victim: patient timeouts, eager retries, no alternate
    channels — a single stalling repository can eat the whole sync budget. *)

val resilient_policy : fetch_policy
(** Short timeouts, one retry, every fallback channel: confines a stalling
    adversary's damage to added staleness on the targeted points. *)

type issue = {
  uri : string;
  filename : string option;
  kind : Validation.issue_kind;  (** the corpus-aligned category *)
  reason : string;               (** human-readable detail *)
}
(** One fetch or validation problem, attributed to a location and
    classified into the typed {!Validation.issue_kind} taxonomy. *)

val issue_counts : issue list -> (Validation.issue_kind * int) list
(** Per-category totals over a sync's issues, most frequent first (ties
    broken by category label) — the run summary's histogram. *)

val seqnum_gap_threshold : int
(** Manifest-number jumps at most this large are treated as honest churn
    (every republish advances the number); larger jumps raise
    {!Validation.Ik_seqnum_gap}. *)

type transfer = {
  t_uri : string;
  t_status : fetch_status;
  t_channel : string;  (** ["live"], ["mirror:<uri>"], ["rrdp:<uri>"],
                           ["cache"] or ["none"] *)
  t_attempts : int;    (** requests issued across all channels *)
  t_elapsed : int;     (** transport time spent on this point *)
  t_data_age : int;    (** age of the data used; 0 unless a stale copy *)
}
(** The transport-level story of one publication point's fetch. *)

(** A publication point contradicting this vantage's {e own} recorded
    history — the local, no-gossip-needed signal of a rewritten past.  Only
    a log that survived the restart can raise these; a fresh log has no
    baseline to contradict. *)
type regression =
  | Serial_regression of {
      rg_uri : string;
      rg_prev : Rpki_transparency.Log.observation;
          (** the state this vantage last recorded for the point *)
      rg_now : Rpki_transparency.Log.observation;
          (** the older manifest number the point serves now *)
    }
  | Content_equivocation of {
      rg_uri : string;
      rg_index : int;  (** log index of the first observation under this key *)
      rg_prev : Rpki_transparency.Log.observation;
      rg_now : Rpki_transparency.Log.observation;
    }

val regression_to_string : regression -> string

type sync_result = {
  vrps : Vrp.t list;                       (** the effective VRP set, sorted *)
  unsafe_vrps : Vrp.t list;                (** VRPs overlapping a failed CA's
                                               resources; [[]] under
                                               [Unsafe_accept].  Under
                                               [Unsafe_reject] they are also
                                               excluded from [vrps]. *)
  failed_resources : Resources.t;          (** union of resources of every CA
                                               that failed to fetch or
                                               validate this sync *)
  issues : issue list;
  fetches : (string * fetch_status) list;
  transfers : transfer list;               (** per-point transport accounting *)
  sync_elapsed : int;                      (** total transport time spent *)
  budget_exhausted : bool;                 (** the sync budget ran out before
                                               every point was tried *)
  cas_validated : string list;
  index : Origin_validation.index;         (** index over [vrps], maintained
                                               incrementally across syncs *)
  diff : Vrp.diff;                         (** change since the previous sync *)
  points_reused : int;                     (** points whose memoized validation
                                               was replayed *)
  points_revalidated : int;                (** points validated from scratch *)
  observations_appended : int;             (** distinct new publication-point
                                               states recorded in the
                                               transparency log this sync *)
  regressions : regression list;           (** points that contradicted this
                                               vantage's own recorded history *)
  tree_head : Rpki_transparency.Log.head;  (** the log's head after this sync *)
}

val max_data_age : sync_result -> int
(** The worst data staleness the sync accepted: 0 when every point came from
    a fresh channel (live, mirror or RRDP), the oldest cache age otherwise. *)

type t
(** Opaque relying-party state. *)

val create :
  name:string -> asn:int -> tals:tal list -> ?grace:int -> ?log_epoch:int -> unit -> t
(** [grace] is the Suspenders-style fail-safe (the paper's ref [25]): when
    set, a VRP that disappears keeps being used for this many ticks after it
    was last seen — softening Side Effects 6 and 7 at the price of delaying
    legitimate revocations by the same window.

    [log_epoch] (default 0) is the vantage's incarnation counter: a restart
    that could not restore its snapshot must start a visibly {e new}
    transparency log (log id [name/e<k>]) rather than impersonate a
    truncated continuation of the old one.  Epoch 0 keeps the log id equal
    to [name]. *)

val name : t -> string

val asn : t -> int
(** The AS where this relying party sits. *)

val vrps : t -> Vrp.t list
(** The current effective VRP set (the baseline the next sync diffs
    against) — after {!restore}, the persisted last-good set. *)

val last_result : t -> sync_result option
(** The most recent {!sync} result, if any. *)

val flush_cache : t -> unit
(** Drop cached snapshots, RRDP client state, memoized validations and grace
    memory (the manual operator intervention the paper mentions for Side
    Effect 7 recovery).  The next sync revalidates everything from scratch;
    its [diff] is still relative to the last result.  The transparency log
    is {e not} flushed: it is append-only evidence, and a cache wipe must
    not be able to erase it. *)

(** {2 Transparency}

    Every sync appends one content-addressed observation per distinct
    publication-point state fetched (point URI, manifest number, manifest
    hash, VRP-set hash, listing fingerprint) to this vantage's append-only
    Merkle log.  {!Gossip} exchanges signed tree heads between vantages;
    a split-view authority that shows this RP a forked repository leaves
    two irreconcilable observations under the same (point, manifest number)
    key — portable cryptographic evidence of misbehavior. *)

val transparency_log : t -> Rpki_transparency.Log.t
(** This vantage's observation log (live — do not mutate). *)

val signed_tree_head : t -> now:Rtime.t -> Rpki_transparency.Log.signed_head
(** The current head under this vantage's signing key (generated
    deterministically from the RP name on first use).  While the tree is
    unchanged (same log id, size and root) the last signed head is served
    as-is — like a CT log answering every pull with its current STH — so
    a static log costs one signature total, not one per serve; its
    [h_at] is the time of the last tree change. *)

val head_signed : t -> now:Rtime.t -> bool
(** Whether {!signed_tree_head} at [now] would serve its kept head and sign
    nothing: the kept head has the current tree's log id, size and root. *)

val transparency_key : t -> Rpki_crypto.Rsa.public
(** The key {!signed_tree_head} signs with — what peers verify against.
    Seeded from the vantage name, so it is stable across restarts and
    epochs. *)

val log_epoch : t -> int
(** The current incarnation counter (see {!create}). *)

val peer_heads : t -> (string * Rpki_transparency.Log.head) list
(** Last gossip-verified tree head per peer, as recorded by
    {!note_peer_head} — the persisted anti-rollback baseline for other
    vantages' logs. *)

val note_peer_head : t -> peer:string -> Rpki_transparency.Log.head -> unit
(** Record a gossip-verified head for [peer] (replaces any previous one).
    Called by {!Gossip} after verification; persisted by {!save}. *)

val point_vrps : t -> uri:string -> Vrp.t list
(** The VRPs this vantage last validated out of publication point [uri] —
    i.e. which prefixes a fork at that point can affect.  Empty if the point
    was never validated (or the memo was flushed).  The memo is keyed by
    URI, then by the issuing certificate's key id, so this reads one URI's
    outcomes: the union over every key the point was validated under. *)

val memoized : t -> (string * Vrp.t list) list
(** Every memoized validation outcome as (point URI, its VRPs), in no
    particular order: what {!point_vrps} groups by URI.  The reference the
    differential tests scan. *)

val rollback_last_good : t -> uri:string -> vrp_hash:string -> Vrp.t list option
(** The honest-side rollback.  When gossip proves a fork at [uri] one or
    more periods late, the tainted view may already be absorbed into this
    vantage's current state; the evidence bundle's proven-honest side
    carries the VRP-set hash of the newest state honest vantages saw.
    This returns the VRP contribution this vantage itself validated under
    exactly that hash (from a bounded per-point history of recent states),
    so the caller can freeze the RTR hold at the rolled-back set instead of
    pinning the tainted one.  [None] when this vantage never validated that
    state — e.g. a fresh post-restart incarnation — in which case a hold
    pinning nothing is the fail-closed answer. *)

(** {2 Persistence}

    {!save} writes the anti-rollback baseline — transparency log, own signed
    tree head, gossip-verified peer heads, last-good VRP set, RTR serial —
    through a generation-numbered, checksummed {!Rpki_persist.Store}.  The
    first save writes a full base snapshot; later saves seal an O(delta)
    segment holding only the observations appended since the last persisted
    checkpoint, under a Merkle consistency proof tying it to the previous
    head, and the VRP set as a diff against the set the chain already
    restores to — no VRP record at all when the set did not change.
    {!compact_store} folds a long chain back into one base.
    {!restore} walks base through segments, re-verifies every checkpoint
    and the final head, and is fail-closed: a missing, corrupt, stale or
    internally inconsistent chain (e.g. a rehydrated log that disagrees
    with its own signed head, or a segment whose consistency proof fails)
    degrades to {!Recovered_fresh} with a typed reason.  It never crashes
    and never silently trusts a bad snapshot. *)

type fresh_reason =
  | No_snapshot
  | Snapshot_corrupt of string
  | Snapshot_stale of { snap_generation : int; marker : int }
  | Log_inconsistent of string
      (** checksums passed but the contents don't hold together: bad record
          shapes, out-of-range values, VRP diffs that do not compose,
          replay/head mismatch, or a signature failure *)

val fresh_reason_to_string : fresh_reason -> string

type recovery =
  | Recovered of { rc_generation : int; rc_saved_at : int; rc_rtr_serial : int }
  | Recovered_fresh of fresh_reason

val recovery_to_string : recovery -> string

val save :
  t -> now:Rtime.t -> ?rtr_serial:int -> ?mode:[ `Auto | `Full ] ->
  Rpki_persist.Store.t -> int
(** Persist this vantage's durable state; returns the new generation.
    [rtr_serial] (default 0) is the RTR cache serial to persist alongside.
    [`Auto] (the default) appends an O(delta) checkpointed segment when the
    store holds a base and this relying party has a mark for the store's
    chain, and falls back to a full base snapshot otherwise (first save,
    wiped store, log reset, epoch bump).  The mark is kept only while the
    file the last save sealed reads back intact
    ({!Rpki_persist.Store.sealed}): after a torn, partially flushed or
    bit-flipped write, or a dropped rename, the next save writes a base.
    The mark holds the VRP set the chain restores to: a segment carries no
    VRP record when the effective set equals it, and one [vrps-diff]
    record (added, removed) otherwise; only a base carries the full set.
    [`Full] forces the O(history) full snapshot — the pre-segmentation
    behavior, kept for baseline comparisons.  {!Rp_store} writes both
    kinds of container. *)

val compact_store : Rpki_persist.Store.t -> now:Rtime.t -> (int, string) result
(** Fold a relying-party store's base + segments into one full base
    snapshot: exactly the records a [`Full] {!save} of the restored state
    writes (all observations in order, newest bounded records, the VRP set
    the chain restores to, no checkpoints).  The chain is read by
    {!Rp_store.read_chain}, {!restore}'s own reader, so every check that
    needs no vantage — each record, checkpoint and consistency proof, the
    log replay against the newest head, the VRP records — applies, and a
    chain that fails one is [Error] before anything is written; only the
    vantage's name and key are left to {!restore}.  Crash-safe: on any
    detected disk fault the store is left segmented and loadable, and the
    error says why.  It never raises. *)

val restore : t -> Rpki_persist.Store.t -> recovery
(** Rehydrate a freshly {!create}d relying party from a snapshot chain:
    {!Rp_store.read_chain}, which {!compact_store} shares, then the two checks
    bound to this vantage, that the chain names it and that the newest head
    verifies under its key.  On success the transparency log (rebuilt from
    base + segments, each segment's consistency proof re-verified, the whole
    verified against the newest persisted signed head), peer heads, effective
    VRP set (with a rebuilt origin-validation index) and log epoch are
    restored; caches, memos and grace memory start empty.  The VRP set is the
    base's full set with each segment's diff applied in chain order, strictly:
    the base must carry exactly one full set and a segment at most one diff, a
    diff that removes an absent VRP or adds a present one is refused, a VRP
    whose address or origin does not fit 32 bits is refused, and so is a
    container with two meta, signed-head or checkpoint records — each
    {!Log_inconsistent}.  The restored set becomes the store's mark, so the
    next save diffs against it.  On failure the relying party is left
    untouched. *)

val sync :
  t ->
  now:Rtime.t ->
  universe:Universe.t ->
  ?transport:Transport.t ->
  ?policy:fetch_policy ->
  ?valcache:Valcache.t ->
  unit ->
  sync_result
(** Fetch from every trust anchor down, validate top-down (manifest and CRL
    checks included) skipping fingerprint-unchanged points, and return the
    validated ROA payloads together with every problem encountered, the
    updated origin-validation index, the VRP diff since the previous sync,
    and the per-point transport accounting.

    Fetching goes through [transport] (default {!Transport.instant}) under
    [policy] (default {!default_policy}).

    [valcache], when given, attaches the shared cross-vantage validation
    plane: signature checks route through its verdict memo and
    publication-point outcomes missing from this RP's private memo are
    replayed from (or contributed to) its content-addressed outcome store.
    Sharing is transparent — the sync result, including the
    [points_reused]/[points_revalidated] counters (which count only this
    RP's private memo), is identical with and without it; only the number
    of RSA verifications actually executed changes.  Transport accounting
    is never short-circuited by the cache. *)
