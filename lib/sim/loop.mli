(** Closing the loop (the paper's Section 6): RPKI -> route validity ->
    BGP -> repository reachability -> RPKI.

    A discrete-time simulator in which, each tick, the relying party syncs
    the RPKI {e over the data plane its previous sync produced}: a
    publication point can be fetched only if the RP currently has a working
    route to the repository's address.  A transient fault that invalidates
    the route to a repository therefore prevents the fetch that would repair
    it — Side Effect 7's persistent-failure mechanism.

    Sync is incremental across ticks: the relying party carries its
    origin-validation index forward, and each tick's VRP diff feeds an RTR
    cache as a serial-numbered delta.

    This module is the tick engine.  The rigs that drive it — the paper's
    Section 6 setting and generated worlds, with monitors, persistence and
    a fault mix — are built from one spec by {!Scenario}. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp

type probe = {
  label : string;
  addr : Rpki_ip.Addr.V4.t;
  expected_origin : int;
}

type t = {
  universe : Universe.t;
  topo : Topology.t;
  policy : Policy.t;                         (** uniform at every AS *)
  mutable rp : Relying_party.t;              (** mutable: {!restart_vantage}
                                                 replaces the instance *)
  rtr : Rpki_rtr.Server.t;                   (** the RTR serving plane: fed one
                                                 delta per changed tick, flushed
                                                 (one batched notify) at tick
                                                 end *)
  mutable rtr_domains : int;
      (** ignored: {!step} flushes on the calling Domain.  It stays while
          the benchmark's replica of {!step} reads it, and goes with that
          replica's re-baseline *)
  announcements : Propagation.announcement list;
  probes : probe list;
  transport : Transport.t;                   (** priced off the previous tick's
                                                 data plane, one transport tick
                                                 per hop; each transport keeps
                                                 the hop counts it traced while
                                                 the data plane keeps their
                                                 forwarding state
                                                 ({!Data_plane.same_forwarding}) *)
  mutable fetch_policy : Relying_party.fetch_policy;
  mutable net : Data_plane.network option;
  mutable history : tick_record list;
  mutable vantages : Gossip.vantage list;    (** gossip mesh members *)
  mutable gossip : Gossip.t option;
  mutable gossip_period : int;
  mutable disk : Rpki_persist.Disk.t option;
  mutable stores : (string * Rpki_persist.Store.t) list;
  mutable dead : string list;
  mutable epochs : (string * int) list;
  mutable point_good : (string * Vrp.t list) list;
  mutable held_uris : (string * Rpki_ip.V4.Prefix.t list) list;
  mutable valcache : Valcache.t option;
      (** the shared validation plane all vantages sync through (on by
          default); [None] = independent per-vantage validation.  Results
          are identical either way — only crypto cost differs. *)
  mutable valcache_evict : bool;
      (** run {!Valcache.end_tick} at every tick end (on by default),
          dropping window-expired entries so residency stays flat under
          churn.  Pure memo — results are identical with it off. *)
  mutable compact_every : int;
      (** fold every persistence chain into its base snapshot every this
          many ticks ({!Relying_party.compact_store}); 0 (default) = never *)
  mutable save_full : bool;
      (** force O(history) full snapshots instead of O(delta) segments —
          the pre-segmentation baseline the soak bench compares against *)
  mutable keep_history : bool;
      (** accumulate tick records in [history] (on by default); long soaks
          turn this off so the run's memory stays flat *)
}

and tick_record = {
  time : Rtime.t;
  vrp_count : int;
  issue_count : int;
  fetch_failures : string list;
  probe_results : (string * bool) list;
  vrp_diff : Vrp.diff;          (** change relative to the previous tick *)
  rtr_serial : int;             (** RTR cache serial after this tick *)
  points_reused : int;          (** publication points replayed from memo *)
  points_revalidated : int;     (** publication points validated from scratch *)
  sync_elapsed : int;           (** transport time the sync spent *)
  max_data_age : int;           (** worst staleness the sync accepted *)
  budget_exhausted : bool;      (** the fetch budget ran out this tick *)
  gossip_report : Gossip.round_report option;
      (** the gossip round run this tick; [None] when gossip is disabled or
          off-period this tick *)
  regressions : Relying_party.regression list;
      (** the primary's own-history contradictions this tick — the local
          (no gossip needed) rollback signal, possible only with a restored
          log *)
  rtr_holds : int;              (** evidence-triggered holds active on the
                                    RTR cache after this tick *)
  sig_checks : int;             (** RSA verifications executed during this
                                    tick's sync phase, across all vantages *)
  sig_saved : int;              (** verifications answered by the shared
                                    validation plane's verdict memo this
                                    tick; 0 when it is disabled *)
  unsafe_count : int;           (** unsafe VRPs the primary's sync reported
                                    this tick (see
                                    {!Relying_party.unsafe_policy}); also
                                    annotated on the RTR serving plane *)
}

val create :
  universe:Universe.t ->
  topo:Topology.t ->
  policy:Policy.t ->
  rp:Relying_party.t ->
  announcements:Propagation.announcement list ->
  probes:probe list ->
  t

(** {2 Configuration}

    Every loop knob lives in one record: build a {!Config.t} from
    {!Config.default} and apply it once with {!configure}.  The scenario
    rigs of {!Scenario} are built the same way. *)

module Config : sig
  type vantage_spec = {
    name : string;
    rp : Relying_party.t;
    endpoint : Pub_point.t;  (** where peers pull this vantage's log from *)
  }

  type t = {
    fetch_policy : Relying_party.fetch_policy;
        (** default {!Relying_party.default_policy} *)
    valcache : bool;         (** shared validation plane; default [true] *)
    valcache_evict : bool;   (** epoch-based eviction at tick end; default
                                 [true].  Pure memo — results identical off *)
    rtr_domains : int;
        (** ignored: the RTR flush runs on the calling Domain.  It stays
            while the benchmark sets it, and goes with the benchmark's
            re-baseline; default 1 *)
    primary_endpoint : Pub_point.t option;
        (** register the loop's own RP as a gossip vantage at this endpoint *)
    vantages : vantage_spec list;  (** extra vantages, in registration order *)
    gossip_period : int option;
        (** [Some p] freezes the vantages into a gossip mesh, one round every
            [p] ticks; [None] (default) = no gossip *)
    gossip_overlay : Gossip.Overlay.spec;
        (** who pulls from whom each round; default
            {!Gossip.Overlay.spec.Full_mesh} *)
    gossip_overlay_seed : int;     (** default {!Gossip.Overlay.default_seed} *)
    persistence : Rpki_persist.Disk.t option;
        (** [Some disk] snapshots every live vantage each tick *)
    compact_every : int;     (** fold persistence chains every this many
                                 ticks; 0 (default) = never *)
    save_full : bool;        (** force O(history) full snapshots; default
                                 [false] (O(delta) segmented saves) *)
    keep_history : bool;     (** accumulate tick records; default [true] *)
  }

  val default : t
  (** No vantages, no gossip, no persistence; default fetch policy,
      valcache on. *)
end

val configure : t -> Config.t -> unit
(** Apply a configuration to a freshly {!create}d loop: policy knobs first,
    then the primary endpoint and extra vantages, then gossip and
    persistence.  Raises [Invalid_argument] on duplicate vantage names or
    when gossip is already enabled.  [valcache = false] drops the shared
    validation plane; either way every sync result, detection tick and
    piece of evidence is identical — only the number of RSA verifications
    executed changes. *)

val rtr_server : t -> Rpki_rtr.Server.t
(** The RTR serving plane fed by the loop: attach router sessions with
    {!Rpki_rtr.Server.attach}; every {!step} ends with one batched
    {!Rpki_rtr.Server.flush} (publish + any holds coalesce into a single
    notify), on the calling Domain. *)

val transport : t -> Transport.t
(** The loop's transport.  Its latency oracle is wired to the previous
    tick's data plane (one transport tick per forwarding hop; no valid
    route — or traffic delivered to a hijacker — is no route).
    Adversaries ({!Rpki_attack.Stall}) and operators inject faults here. *)

val step : t -> now:Rtime.t -> tick_record
(** One tick: refresh mirrors, sync the RP over the previous data plane
    (incrementally), push the VRP diff into the RTR cache, rebuild the
    data plane from the previous one (only prefixes whose route validity
    changed are propagated again), run the probes. *)

val history : t -> tick_record list
val pp_record : Format.formatter -> tick_record -> unit

(** {2 Vantages and gossip}

    A loop can run additional relying-party {e vantages} alongside its
    primary RP: each extra vantage syncs the same universe every tick over
    its own transport, priced off the same previous-tick data plane but
    from its own AS.  {!Config.gossip_period} builds a {!Gossip} mesh over
    them; every [period] ticks a gossip round runs
    {e after} routing converges (so a partitioned vantage also cannot
    gossip) and its report — including any split-view {!Gossip.alarm.Fork}
    alarms — lands on that tick's record. *)

val vantage : t -> name:string -> Gossip.vantage

val vantage_transport : t -> name:string -> Transport.t
(** The named vantage's transport — where adversaries install per-vantage
    faults or {!Transport.set_view} forks. *)

val gossip_mesh : t -> Gossip.t option

val first_fork_tick : t -> Rtime.t option
(** The earliest tick whose gossip round raised a {!Gossip.alarm.Fork} —
    the moment a split view became detected, for detection-latency
    measurements. *)

val first_rollback_tick : t -> Rtime.t option
(** The earliest tick on which a served rollback became detected — by the
    primary's own restored history (a non-empty [regressions] list) or by a
    gossip {!Gossip.alarm.Rollback} — for detection-latency measurements
    against a restart adversary. *)

(** {2 Persistence, crash and restart}

    With {!Config.persistence}, every live vantage snapshots its durable
    state ({!Relying_party.save}) at the end of each tick, to a
    per-vantage generation-numbered store on a shared simulated disk —
    where experiments arm {!Rpki_persist.Disk.inject} faults.
    {!kill_vantage} stops a vantage mid-run (no sync, no gossip, no
    saves); {!restart_vantage} brings it back as a new relying-party
    instance whose only link to its past is whatever {!Relying_party.restore}
    can verifiably recover.  The primary's RTR cache continues its serial
    line on a good restore and takes a visible reset otherwise.

    Detected contradictions — a local {!Relying_party.regression} or
    verified gossip fork/rollback evidence — freeze the affected prefixes
    on the RTR cache ({!Rpki_rtr.Session.hold}) at the last VRPs validated
    before the contradiction was served. *)

val vantage_store : t -> name:string -> Rpki_persist.Store.t
(** The named vantage's snapshot store (created on first use).  Raises
    [Invalid_argument] when persistence is not enabled. *)

val kill_vantage : t -> name:string -> unit
(** Crash a vantage (the primary included): from now it neither syncs, nor
    gossips, nor saves; peers see its endpoint go silent.  Process state
    dies with it — only its snapshot store survives. *)

val restart_vantage :
  t ->
  name:string ->
  now:Rtime.t ->
  make:(log_epoch:int -> Relying_party.t) ->
  Relying_party.recovery
(** Restart a killed vantage as a fresh relying-party instance built by
    [make] (same name required).  [make] receives the pessimistic next log
    epoch; a verified snapshot restore overrides it with the persisted
    epoch, so only a failed restore starts a visibly new log incarnation.
    On restore the gossip mesh reseeds the vantage's consistency baselines
    from its persisted peer heads; otherwise its gossip memory starts
    empty (and peers will raise {!Gossip.alarm.Log_reset}).  Raises
    [Invalid_argument] unless the vantage is down. *)
