(** Tree-head gossip between relying-party vantages: split-view (mirror
    world) detection.

    The paper's Section 7 asks for monitoring that {e deters} manipulation
    by making it detectable.  A single vantage cannot tell a targeted
    split view from legitimate change: the forked repository it is served
    is internally consistent and properly signed.  What it {e can} do is
    commit to everything it saw ({!Relying_party.transparency_log}) and
    compare commitments with peers.  This module is that comparison.

    Protocol (pull-based; one round = every (receiver, peer) edge the
    {!Overlay} selects): each receiver fetches from each of its peers —
    over the receiver's own {!Transport}, so gossip pays latency and can
    itself be stalled or partitioned — a message containing the peer's
    current signed tree head, a Merkle consistency proof from the head the
    receiver last saw, and the observation records appended since, each
    with an inclusion proof.  The receiver verifies signature, consistency
    and inclusions, then cross-checks every received observation against
    its own log under the (publication point, manifest number) key.

    Outcomes, as typed {!alarm}s:
    - {!alarm.Fork}: the same (point, manifest number) maps to different
      content hashes in the two logs — a split view.  Carries both sides'
      observations, inclusion proofs and signed heads; {!verify_fork}
      re-checks the evidence from scratch, so the alarm is portable.
    - {!alarm.Inconsistent_heads}: a peer's new head does not extend the
      head it previously gossiped — the peer (or whoever serves its log)
      rewrote history.
    - {!alarm.Bad_head_signature} / {!alarm.Bad_inclusion}: a message that
      fails cryptographic verification; its records are not trusted.

    Honest vantages over faulty-but-consistent transports (slow, stalling,
    partitioned) never produce {!alarm.Fork} or
    {!alarm.Inconsistent_heads}: delays postpone exchanges and stale
    caches dedup to nothing, but no honest sequence of observations can
    fork a log.

    {1 Scaling}

    A full pairwise mesh is O(n²) pulls per round — the per-tick hot path
    at high vantage counts.  {!Overlay} replaces it with partial meshes
    (O(n·k) pulls), and a round-level cache makes each pull cheaper: every
    served log signs its head once per tree
    ({!Relying_party.signed_tree_head}), every distinct (peer, head,
    signature) triple is verified once per round, Merkle proofs are built
    once per (tree root, range), and each inclusion or consistency check is
    made once per round for its exact inputs ({!Merkle.Verdicts}) — honest
    vantages hold identical logs, so proof generation and proof checking
    collapse to one per distinct range instead of one per edge.  What a
    receiver decides from a check (log id and size order, its baselines,
    the cross-check against its own log, every alarm) stays its own.  All
    of it is observational: the alarms raised are exactly those of uncached
    pulls.  {!verify_fork} never consults the round's table: evidence is
    re-checked from scratch.

    A round first plans its pulls (skips, served instances, transport
    probes), then signs and checks every head that an answered pull serves
    and that has no signature for its current tree, on every core
    ({!Rpki_util.Par.map}; inline for fewer than two such heads).  The
    pulls then run in order on the calling Domain; the report and the
    alarms are those of signing and checking each head at its first
    pull.

    Detection under a partial mesh is a {e reachability} property: a
    receiver only cross-checks a peer's delta against its own log, so a
    fork against vantage v is caught in the first round where v exchanges
    with any honest vantage that saw the honest side.  All honest vantages
    log the same honest observations, so any honest neighbor of the victim
    raises the same (uri, serial) fork — which is why any connected
    overlay eventually raises the same forks as the full mesh, only later.

    {1 Byzantine vantages}

    {!set_server} lets an adversary take over what a vantage {e serves}:
    a per-receiver choice of relying party, i.e. equivocation inside
    gossip itself (different signed heads to different peers — see
    {!Rpki_attack.Equivocator}).  A Byzantine vantage also stops pulling:
    a traitor would not report what it finds, so its selected edges are
    skipped (counted in {!round_report.r_skipped}).  Detection then needs
    the victim to be overlay-adjacent to at least one {e honest} vantage —
    the BGP-Sentry-style honest-majority threshold quantified in
    [bench gossip]. *)

open Rpki_core
open Rpki_crypto
module Log = Rpki_transparency.Log
module Merkle = Rpki_transparency.Merkle

(** Who pulls from whom each round.  Every generator is deterministic in
    [(spec, seed, names, round)] — re-running a round re-selects the same
    edges. *)
module Overlay : sig
  type spec =
    | Full_mesh
        (** every ordered pair, the legacy O(n²) mesh *)
    | K_regular of int
        (** [K_regular k]: a seeded circulant graph — the vantages on a
            shuffled Hamiltonian cycle plus chords at ring offsets
            [2..⌈k/2⌉] — so every vantage has ≈k undirected neighbors and
            the cycle keeps it connected by construction.  Pulls run both
            directions of every edge: O(n·k) per round. *)
    | Star of int
        (** [Star h]: the {e last} [h] vantages in registration order are
            hubs (monitors register after the primary, so hubs are
            monitors).  Spokes pull from hubs only; hubs pull from
            everyone.  Connected for any [h ≥ 1], but detection dies with
            the hubs — the Byzantine sweep shows the cliff. *)
    | Random_peers of int
        (** [Random_peers k]: each receiver pulls from a fresh seeded
            sample of [k] peers every round (the round number is mixed
            into the seed).  Any single round may be disconnected; the
            union over rounds covers the mesh quickly. *)

  val default_seed : int

  val to_string : spec -> string
  (** ["full"], ["k:4"], ["star:2"], ["random:3"] — inverse of
      {!of_string}. *)

  val of_string : string -> spec option
  (** Accepts ["full"]/["full-mesh"]/["mesh"], ["k:N"]/["k-regular:N"],
      ["star"]/["star:N"], ["random:N"]/["random-peers:N"]. *)

  val pulls :
    spec -> seed:int -> round:int -> string list -> (string * string) list
  (** The ordered (receiver, peer) pulls of one round over the given
      vantage names.  Deterministic; [round] only matters for
      [Random_peers].  Raises [Invalid_argument] on a degree < 1. *)

  val connected : (string * string) list -> names:string list -> bool
  (** Whether the pulls, read as undirected edges, connect all [names]. *)
end

type vantage = {
  v_name : string;
  mutable v_rp : Relying_party.t;
                             (** mutable: a restarted vantage re-enters the
                                 mesh as a new RP instance under its name *)
  v_endpoint : Pub_point.t;  (** where this vantage's log server answers —
                                 addressing only; gossip to it is priced and
                                 faulted like any repository fetch *)
  v_transport : Transport.t; (** the network as this vantage experiences it;
                                 its pulls travel through this *)
}

(** One side of a fork: an observation bound to its vantage's signed head. *)
type attested = {
  att_vantage : string;
  att_obs : Log.observation;
  att_index : int;           (** leaf index in that vantage's log *)
  att_head : Log.signed_head;
  att_proof : Merkle.proof;  (** inclusion of the leaf under the head *)
}

type alarm =
  | Fork of {
      fork_uri : string;
      fork_serial : int;
      left : attested;   (** the receiver's own record *)
      right : attested;  (** the peer's conflicting record *)
    }
  | Inconsistent_heads of {
      ih_peer : string;
      ih_seen_by : string;
      ih_old : Log.head;  (** what the peer gossiped before *)
      ih_new : Log.head;  (** what it claims now *)
    }
  | Bad_head_signature of { bs_peer : string; bs_seen_by : string }
  | Bad_inclusion of { bi_peer : string; bi_seen_by : string; bi_index : int }
  | Rollback of {
      rb_uri : string;
      rb_earlier : attested;
          (** recorded earlier in the peer's log, higher manifest number *)
      rb_later : attested;
          (** appended later, lower manifest number — a served rollback.
              Both sides attest under the {e same} signed head of the same
              log, so the evidence is one log contradicting itself. *)
    }
  | Log_reset of {
      lr_peer : string;
      lr_seen_by : string;
      lr_old : Log.head;  (** the last head verified for the previous log *)
      lr_new : Log.head;  (** the head of the new incarnation (new log id) *)
    }
      (** The peer's log id changed: it restarted without its baseline.
          Informational — every verified state for the old log is dropped,
          because judging the new log against the old one's heads would
          misread any fresh restart as history rewriting.  This is exactly
          the window a rollback adversary exploits. *)

val is_fork : alarm -> bool
val is_rollback : alarm -> bool
val describe_alarm : alarm -> string

val verify_fork :
  key_of:(string -> Rsa.public option) -> alarm -> bool
(** Re-verify fork or rollback evidence from scratch.  For a [Fork]: both
    signed heads under their vantages' keys ([key_of] by vantage name), both
    inclusion proofs, key equality and content divergence.  For a
    [Rollback]: both inclusions under the {e same} signed head of one log,
    append order, and the manifest number going backwards.  [false] for
    other alarms or when any check fails — a [true] here is proof that
    needs no trust in whoever raised the alarm. *)

type exchange = {
  ex_from : string;                         (** the peer pulled from *)
  ex_to : string;                           (** the receiver *)
  ex_outcome : [ `Ok of int | `Stalled | `Unroutable ];
      (** [`Ok n]: n observation records transferred *)
  ex_proof_bytes : int;                     (** Merkle proof payload moved *)
}

type round_report = {
  r_at : int;
  r_exchanges : exchange list;
  r_alarms : alarm list;     (** new alarms this round only *)
  r_proof_bytes : int;       (** total proof payload this round — wire
                                 bytes: proof sharing saves generation
                                 cost, not transfer volume *)
  r_pulls : int;             (** pulls executed (overlay edges that ran) *)
  r_skipped : int;           (** overlay edges dropped: a dead endpoint, or
                                 a Byzantine receiver that stays silent *)
  r_verifies : int;          (** head-signature verifications executed *)
  r_verifies_saved : int;    (** verifications answered by the round memo *)
  r_proofs_built : int;      (** Merkle proofs generated this round *)
  r_proofs_reused : int;     (** proofs served from the round cache *)
}

type t

val create :
  ?overlay:Overlay.spec -> ?overlay_seed:int -> vantage list -> t
(** A gossip mesh over the given vantages.  Each pull gets 32 time units,
    like a fetch-policy point timeout.  [overlay] (default
    {!Overlay.spec.Full_mesh}) selects who pulls from whom each round;
    [overlay_seed] (default {!Overlay.default_seed}) fixes the shuffle. *)

val vantages : t -> vantage list

val overlay : t -> Overlay.spec

val key_of : t -> string -> Rsa.public option
(** The named vantage's transparency-log key: the [key_of] that
    {!verify_fork} and [Evidence.export] take.  [None] for a name outside
    the mesh. *)

val round_pulls : t -> round:int -> (string * string) list
(** The (receiver, peer) pulls the mesh's overlay selects for [round],
    before dead endpoints and Byzantine receivers are skipped. *)

val set_server :
  t -> name:string -> ?refresh:(now:Rtime.t -> unit) ->
  (receiver:string -> Relying_party.t) -> unit
(** Make vantage [name] Byzantine: what it serves to [receiver] is whatever
    relying party the callback returns — its own for some receivers, a
    same-named shadow for others, i.e. gossip-level equivocation.  The
    optional [refresh] runs at the start of every round [name] is alive in
    (sync the shadow's view before serving it).  While overridden, [name]
    stops pulling — a traitor would not report what it finds.  Raises
    [Invalid_argument] for an unknown vantage. *)

val clear_server : t -> name:string -> unit
(** Return vantage [name] to honest serving (and pulling). *)

val server_names : t -> string list
(** The currently Byzantine vantages, in registration order. *)

val round : ?alive:(string -> bool) -> t -> now:Rtime.t -> round_report
(** Run one gossip round over the overlay's selected edges.  [alive]
    (default: everyone) filters participants — a killed vantage neither
    pulls nor answers.  Alarms deduplicate across rounds: a fork already
    reported for a (uri, serial, pair) key stays reported but is not
    re-raised. *)

val forget_receiver : t -> name:string -> unit
(** Drop every verified-peer-state entry where [name] is the receiver.  A
    vantage's gossip memory is process state: a restart loses it.  Gossip
    continues, but [name] re-verifies its peers from scratch. *)

val reseed_receiver : t -> name:string -> unit
(** Rehydrate [name]'s consistency baselines from the peer heads its
    relying party persisted ({!Relying_party.peer_heads}) — the
    persistence-on counterpart of {!forget_receiver}. *)

val alarms : t -> alarm list
(** Every alarm ever raised, oldest first. *)

val forks : t -> alarm list
(** Just the {!alarm.Fork}s. *)

val rollbacks : t -> alarm list
(** Just the {!alarm.Rollback}s. *)

val pp_report : Format.formatter -> round_report -> unit
