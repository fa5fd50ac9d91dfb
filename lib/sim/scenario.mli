(** Scenario rigs for the closed loop: one spec, one rig, one {!build}.

    Every experiment reruns the paper's Section 6 loop with different
    rigging.  A {!spec} names it along four axes: the world source (the
    paper's Section 6 model or a generated world), the vantages (monitor
    count, placement, gossip period and overlay), persistence, and a
    corpus-weighted fault mix.  It also carries the relying party's routing
    policy, grace, fetch policy and validation cache, and the endurance
    knobs {!Loop.Config} applies.

    The rig always has the same shape: a primary relying party named
    ["victim-rp"] whose log endpoint is registered as a vantage (gossiping
    only when there are monitors), a victim CA with its ROA, and a respawn
    builder for {!Loop.restart_vantage}.

    The drivers stage each of the paper's timelines once: the Side Effect 7
    fault ({!run_section6}), the split view against that CA, optionally
    with Byzantine monitors ({!run_split_view}, {!equivocators}), and the
    crash followed by a rollback ({!run_rollback}).  Each runs the rig's
    ticks from the first; callers read {!Loop.history} and the driver's
    result afterwards.  Callers that act or time between ticks step the rig
    themselves with {!step}. *)

open Rpki_repo

(** {2 The spec} *)

type section6 = {
  mirrored : bool;
      (** mirror Continental's repository inside Sprint's address space
          (the draft-multiple-publication-points mitigation) *)
  rrdp : bool;  (** an RRDP delta service for it, likewise in Sprint's space *)
  validity : int option;
  refresh_interval : int option;
      (** shorten every authority's issuance windows (see {!Model.build}) so
          stall and churn experiments can age a cache to expiry in a few
          ticks *)
}
(** The paper's Section 6 setting: Figure 5 (right) validity on the small
    topology with every repository host attached, Continental hosting its
    own repository inside its certified /20. *)

val canned : section6
(** No mirror, no RRDP, the model's default issuance windows. *)

type source =
  | Section6 of section6
  | World of Rpki_world.Synthesis.world
      (** a world already built by {!Rpki_world.Synthesis.build}: callers
          that time synthesis do not synthesize twice *)

type fault_mix = {
  seed : int;
  rate : float;
}
(** Arguments of {!Rpki_repo.Fault_mix.create}; faults are repaired after
    its default interval. *)

type spec = {
  source : source;
  policy : Rpki_bgp.Policy.t;  (** uniform routing policy at every AS *)
  grace : int;                 (** the victim's Suspenders-style VRP hold, in
                                   ticks; 0 holds nothing *)
  fetch_policy : Relying_party.fetch_policy option;
      (** [None]: {!Relying_party.resilient_policy} with the sync budget
          scaled to the publication points, 64 per point and at least the
          resilient budget *)
  valcache : bool;             (** the shared validation plane *)
  monitors : int;              (** monitor vantages beside the victim *)
  placement : Rpki_world.Placement.policy;
      (** where a generated world seats its monitors.  The Section 6
          topology seats them round-robin at its three repository hosts *)
  gossip_period : int;         (** a gossip round every this many ticks;
                                   no mesh without monitors *)
  overlay : Gossip.Overlay.spec;
  overlay_seed : int;
  persist : bool;              (** end-of-tick snapshots on a fresh
                                   simulated disk *)
  fault_mix : fault_mix option;
      (** roll the root and every CA each tick in {!step} *)
  valcache_evict : bool;
  compact_every : int;
  save_full : bool;
  keep_history : bool;         (** the {!Loop.Config} endurance knobs *)
}

val default : spec
(** The split-view setting: the Section 6 source, drop-invalid, grace 4,
    the scaled resilient fetch policy, valcache on, two monitors gossiping
    every tick over a full mesh, no persistence, no fault mix, and the
    {!Loop.Config.default} endurance knobs. *)

val section6 : spec
(** The Side Effect 7 timeline's setting: {!default} with no grace, no
    monitors and {!Relying_party.default_policy}. *)

(** {2 The rig} *)

type rig = {
  sim : Loop.t;
  model : Model.t option;      (** the Section 6 model, for that source *)
  root : Authority.t;          (** the trust anchor *)
  authorities : Authority.t list;
      (** the root and every CA, in the order the fault mix rolls them *)
  victim_ca : Authority.t;     (** Continental on the Section 6 model *)
  victim_roa : string;         (** its ROA's filename: the fork target *)
  monitor_names : string list; (** registered monitor vantages, in order *)
  disk : Rpki_persist.Disk.t option;
      (** with [persist]: the simulated disk, for
          {!Rpki_persist.Disk.inject} faults *)
  engine : Fault_mix.t option; (** with [fault_mix] *)
  respawn : log_epoch:int -> Relying_party.t;
      (** rebuilds the victim for {!Loop.restart_vantage}: same name, AS,
          trust anchor and grace *)
}

val build : spec -> rig
(** Rig a closed loop.  Raises [Invalid_argument] on negative monitors or
    more than the source can seat. *)

val step : rig -> now:Rpki_core.Rtime.t -> Fault_mix.injection list * Loop.tick_record
(** One tick: roll the fault mix, when the rig has one (repair due faults,
    inject fresh ones on [authorities] and the primary's transport),
    then {!Loop.step}.  Returns the tick's fresh injections with its
    record. *)

(** {2 Drivers} *)

val run_section6 : ?flush_cache_at:int -> spec -> rig * Loop.tick_record list
(** The Side Effect 7 timeline: two healthy ticks, a one-tick corruption of
    the victim's ROA at t3, repair at t4, then observation through t7.
    [flush_cache_at] flushes the relying party's cache just before that
    tick's step. *)

val equivocators : rig -> string list -> Rpki_attack.Equivocator.t list
(** Turn the named monitors Byzantine, before any tick: each gets a shadow
    relying party planned from the Section 6 model, forked toward
    ["victim-rp"] and applied to the gossip mesh.  Pass the result to
    {!run_split_view}, which forks every shadow with the victim.  Raises
    [Invalid_argument] without the Section 6 model or for a name outside
    [monitor_names]. *)

type split_view = {
  attack : Rpki_attack.Split_view.t;
  honest_adjacent : bool;
      (** some overlay round from the attack tick to the last pairs the
          victim with a vantage that is not an equivocator, in either pull
          direction; [false] without a mesh or an attack *)
}

val run_split_view :
  ?stealth:Rpki_attack.Split_view.stealth ->
  ?equivocators:Rpki_attack.Equivocator.t list ->
  attack_at:int ->
  ticks:int ->
  rig ->
  split_view
(** The split view: plan a fork of [victim_ca]'s point that suppresses
    [victim_roa] ([stealth] defaults to stealthy), apply it before tick
    [attack_at] to the primary's transport and to each equivocator's shadow
    transport, and run ticks 1..[ticks] with {!step}.  An [attack_at]
    outside 1..[ticks] applies nothing. *)

type rollback = {
  plan : Rpki_attack.Rollback.t;
  recovery : Relying_party.recovery;  (** the victim's restart outcome *)
}

val run_rollback :
  ?disk_fault:Rpki_persist.Disk.fault -> restart_at:int -> ticks:int -> rig -> rollback
(** The crash and rollback: capture [victim_ca]'s point after t2's step,
    revoke the model's [roa_cb_25] before t3, arm [disk_fault] before t5,
    kill the victim after t5's step and replay the capture to it, restart
    it through [respawn] before tick [restart_at], and run to [ticks].
    Raises [Invalid_argument] without the Section 6 model, when
    [restart_at <= 5] or [ticks < restart_at], or for a [disk_fault] on a
    rig without a disk. *)

(** Endurance, not detection: run a rig for thousands of ticks under
    configurable churn and measure the growth curves the endurance work
    flattens — disk bytes per save (O(delta) segments vs O(history) full
    snapshots), Valcache residency (epoch eviction vs monotone growth) and
    Gc live words. *)

type soak_config = {
  sk_ticks : int;            (** simulation length, in ticks *)
  sk_churn_every : int;      (** re-issue the root's subtree every n ticks
                                 ({!Rpki_repo.Authority.maintain});
                                 0 = no churn *)
  sk_sample_every : int;     (** record a sample every n ticks (and at the
                                 last tick regardless) *)
  sk_spec : spec;            (** must persist *)
}

val default_soak : soak_config
(** 2000 ticks, no churn, a sample every 100 ticks, on {!default} with one
    monitor gossiping every 16 ticks, persistence on, compaction every 64
    ticks and no tick history kept, so the run's own memory stays flat. *)

type soak_sample = {
  so_tick : int;
  so_live_words : int;       (** [Gc.stat].live_words after [Gc.full_major] *)
  so_snapshot_bytes : int;   (** the primary store's base snapshot size *)
  so_chain_bytes : int;      (** base + segments: what a restore must read *)
  so_segments : int;         (** sealed segments beyond the base *)
  so_save_bytes : int;       (** disk bytes written since the previous sample *)
  so_log_size : int;         (** primary transparency-log leaves *)
  so_residency : Valcache.residency option;
}

type soak_report = {
  so_config : soak_config;
  so_samples : soak_sample list;  (** oldest first; last = final state *)
  so_saves : int;                 (** saves executed across all vantages *)
  so_total_save_bytes : int;      (** cumulative disk bytes written *)
  so_bytes_per_save : float;
}

val run_soak : ?config:soak_config -> unit -> soak_report
(** Build the config's spec, drive [sk_ticks] ticks with the configured
    churn, and sample the growth curves.  Raises [Invalid_argument] unless
    the spec persists. *)
