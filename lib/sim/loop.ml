(* Closing the loop (Section 6): RPKI -> route validity -> BGP -> repository
   reachability -> RPKI.

   A discrete-time simulator in which, each tick, the relying party syncs
   the RPKI *over the data plane its previous sync produced*: a publication
   point can be fetched only if the RP currently has a working route to the
   repository's address.  A transient fault that invalidates the route to a
   repository therefore prevents the fetch that would repair it — the
   paper's persistent-failure mechanism.

   The sync is incremental across ticks: the relying party carries its
   origin-validation index forward and each tick's VRP diff is pushed into
   an RTR cache as a serial-numbered delta, so attached routers receive
   genuine RFC 6810 incremental updates rather than full resets. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
open Rpki_ip

type probe = {
  label : string;
  addr : Rpki_ip.Addr.V4.t;
  expected_origin : int;
}

type t = {
  universe : Universe.t;
  topo : Topology.t;
  policy : Policy.t;              (* uniform policy at every AS *)
  mutable rp : Relying_party.t;   (* mutable: a restart replaces the instance *)
  rtr : Rpki_rtr.Server.t;        (* the serving plane: fed one serial delta per
                                     changed tick, flushed once per tick *)
  mutable rtr_domains : int;      (* Domains for the flush fan-out *)
  announcements : Propagation.announcement list;
  probes : probe list;
  transport : Transport.t;        (* priced off the previous tick's data plane *)
  mutable fetch_policy : Relying_party.fetch_policy;
  mutable per_hop_latency : int;  (* transport ticks per forwarding hop *)
  mutable net : Data_plane.network option; (* data plane after the last tick *)
  mutable history : tick_record list;      (* newest first *)
  mutable vantages : Gossip.vantage list;  (* gossip mesh members, in
                                              registration order *)
  mutable gossip : Gossip.t option;        (* set by [enable_gossip] *)
  mutable gossip_period : int;    (* run a gossip round every this many ticks *)
  mutable disk : Rpki_persist.Disk.t option;     (* set by [enable_persistence] *)
  mutable stores : (string * Rpki_persist.Store.t) list; (* per-vantage snapshots *)
  mutable dead : string list;     (* killed vantages: no sync, no gossip, no save *)
  mutable epochs : (string * int) list;    (* last known log epoch per vantage *)
  mutable recoveries : (Rtime.t * string * Relying_party.recovery) list;
                                  (* every restart's outcome, newest first *)
  mutable point_good : (string * Vrp.t list) list;
                                  (* per publication point, the last VRP set the
                                     primary validated before any contradiction
                                     was served — what a hold pins *)
  mutable held_uris : (string * V4.Prefix.t list) list;
                                  (* points already frozen, with the prefixes
                                     their hold pinned *)
  mutable valcache : Valcache.t option;
                                  (* the shared validation plane every vantage
                                     syncs through; None = independent
                                     per-vantage validation (results are
                                     identical either way — only the crypto
                                     cost differs) *)
  mutable valcache_evict : bool;  (* run Valcache.end_tick at every tick end,
                                     dropping window-expired entries — flat
                                     residency under churn.  Pure memo: results
                                     are identical with it off *)
  mutable compact_every : int;    (* fold every persistence chain back into its
                                     base every this many ticks; 0 = never *)
  mutable save_full : bool;       (* force O(history) full snapshots instead of
                                     O(delta) segments — the pre-segmentation
                                     baseline the soak bench compares against *)
  mutable keep_history : bool;    (* accumulate tick records in [history];
                                     long soaks turn this off so the run's
                                     memory stays flat *)
}

and tick_record = {
  time : Rtime.t;
  vrp_count : int;
  issue_count : int;
  fetch_failures : string list; (* URIs not freshly fetched *)
  probe_results : (string * bool) list;
  vrp_diff : Vrp.diff;          (* change relative to the previous tick *)
  rtr_serial : int;             (* RTR cache serial after this tick *)
  points_reused : int;          (* publication points replayed from memo *)
  points_revalidated : int;     (* publication points validated from scratch *)
  sync_elapsed : int;           (* transport time the sync spent *)
  max_data_age : int;           (* worst staleness the sync accepted *)
  budget_exhausted : bool;      (* the fetch budget ran out this tick *)
  gossip_report : Gossip.round_report option;
                                (* the gossip round run this tick, if any *)
  regressions : Relying_party.regression list;
                                (* the primary's own-history contradictions *)
  rtr_holds : int;              (* evidence-triggered holds active on the cache *)
  sig_checks : int;             (* RSA verifications executed during this tick's
                                   sync phase, across all vantages *)
  sig_saved : int;              (* verifications answered by the shared
                                   validation plane's verdict memo; 0 without it *)
  unsafe_count : int;           (* unsafe VRPs the primary's sync reported *)
}

(* Latency of one request to a publication point, from the data plane the
   previous tick produced: the forwarding path's hop count times the per-hop
   cost — the Section 6 circularity as time, not just a boolean.  Traffic
   delivered to the wrong origin (a hijacker) is no route at all.  Before
   the first tick routing works and nothing has been priced yet. *)
let latency_from t ~asn (pp : Pub_point.t) =
  match t.net with
  | None -> Some 0
  | Some net -> (
    match Data_plane.trace net ~src:asn ~addr:(Pub_point.addr pp) with
    | Data_plane.Delivered { origin; hops } when origin = Pub_point.host_asn pp ->
      Some (t.per_hop_latency * List.length hops)
    | Data_plane.Delivered _ | Data_plane.No_route _ | Data_plane.Loop _ -> None)

let point_latency t pp = latency_from t ~asn:(Relying_party.asn t.rp) pp

let create ~universe ~topo ~policy ~rp ~announcements ~probes =
  let t =
    { universe; topo; policy; rp; rtr = Rpki_rtr.Server.create (); rtr_domains = 1;
      announcements; probes;
      transport = Transport.create (); fetch_policy = Relying_party.default_policy;
      per_hop_latency = 1; net = None; history = []; vantages = []; gossip = None;
      gossip_period = 1; disk = None; stores = []; dead = []; epochs = [];
      recoveries = []; point_good = []; held_uris = [];
      valcache = Some (Valcache.create ()); valcache_evict = true;
      compact_every = 0; save_full = false; keep_history = true }
  in
  Transport.set_latency_of t.transport (point_latency t);
  t

let rtr_server t = t.rtr
let rtr_cache t = Rpki_rtr.Server.cache t.rtr
let transport t = t.transport
let set_fetch_policy t p = t.fetch_policy <- p
let set_per_hop_latency t c = t.per_hop_latency <- max 0 c

(* Toggle the shared validation plane.  Enabling mid-run starts from an
   empty cache; disabling drops it (results are unaffected either way). *)
let set_valcache t enabled =
  match (enabled, t.valcache) with
  | true, Some _ | false, None -> ()
  | true, None -> t.valcache <- Some (Valcache.create ())
  | false, Some _ -> t.valcache <- None

let valcache t = t.valcache
let valcache_enabled t = Option.is_some t.valcache

(* --- vantages and gossip --- *)

let check_not_gossiping t caller =
  if Option.is_some t.gossip then
    invalid_arg (caller ^ ": gossip already enabled; register vantages first")

let add_vantage t v =
  if List.exists (fun w -> String.equal w.Gossip.v_name v.Gossip.v_name) t.vantages then
    invalid_arg ("Loop: duplicate vantage " ^ v.Gossip.v_name);
  t.vantages <- t.vantages @ [ v ]

let primary_vantage t ~endpoint =
  check_not_gossiping t "Loop.primary_vantage";
  add_vantage t
    { Gossip.v_name = Relying_party.name t.rp; v_rp = t.rp; v_endpoint = endpoint;
      v_transport = t.transport }

let register_vantage t ~name ~rp ~endpoint =
  check_not_gossiping t "Loop.register_vantage";
  (* the extra vantage experiences the same network, but from its own AS:
     its transport prices every request off the previous tick's data plane
     as seen from [rp]'s seat *)
  let tr = Transport.create () in
  Transport.set_latency_of tr (latency_from t ~asn:(Relying_party.asn rp));
  add_vantage t { Gossip.v_name = name; v_rp = rp; v_endpoint = endpoint; v_transport = tr }

let vantage_names t = List.map (fun v -> v.Gossip.v_name) t.vantages

let vantage t ~name =
  match List.find_opt (fun v -> String.equal v.Gossip.v_name name) t.vantages with
  | Some v -> v
  | None -> invalid_arg ("Loop.vantage: unknown vantage " ^ name)

let vantage_transport t ~name = (vantage t ~name).Gossip.v_transport

let enable_gossip ?(period = 1) ?timeout ?overlay ?overlay_seed t =
  check_not_gossiping t "Loop.enable_gossip";
  t.gossip <- Some (Gossip.create ?timeout ?overlay ?overlay_seed t.vantages);
  t.gossip_period <- max 1 period

let gossip_mesh t = t.gossip

(* --- persistence, crash and restart --- *)

let is_dead t name = List.mem name t.dead

let vantage_alive t ~name = not (is_dead t name)

let enable_persistence t disk = t.disk <- Some disk

let persistence_enabled t = Option.is_some t.disk

(* --- configuration record --- *)

module Config = struct
  type vantage_spec = {
    name : string;
    rp : Relying_party.t;
    endpoint : Pub_point.t;
  }

  type t = {
    fetch_policy : Relying_party.fetch_policy;
    per_hop_latency : int;
    valcache : bool;
    valcache_evict : bool;
    rtr_domains : int;
    primary_endpoint : Pub_point.t option;
    vantages : vantage_spec list;
    gossip_period : int option;
    gossip_timeout : int option;
    gossip_overlay : Gossip.Overlay.spec;
    gossip_overlay_seed : int;
    persistence : Rpki_persist.Disk.t option;
    compact_every : int;
    save_full : bool;
    keep_history : bool;
  }

  let default =
    { fetch_policy = Relying_party.default_policy; per_hop_latency = 1;
      valcache = true; valcache_evict = true; rtr_domains = 1;
      primary_endpoint = None; vantages = [];
      gossip_period = None; gossip_timeout = None;
      gossip_overlay = Gossip.Overlay.Full_mesh;
      gossip_overlay_seed = Gossip.Overlay.default_seed; persistence = None;
      compact_every = 0; save_full = false; keep_history = true }
end

(* Apply the knobs in dependency order: scalars first, then vantage
   registration (primary before extras, so the mesh order is stable), then
   gossip — which freezes the vantage list — and persistence last. *)
let configure t (c : Config.t) =
  set_fetch_policy t c.Config.fetch_policy;
  set_per_hop_latency t c.Config.per_hop_latency;
  set_valcache t c.Config.valcache;
  t.valcache_evict <- c.Config.valcache_evict;
  t.compact_every <- max 0 c.Config.compact_every;
  t.save_full <- c.Config.save_full;
  t.keep_history <- c.Config.keep_history;
  t.rtr_domains <- max 1 c.Config.rtr_domains;
  Option.iter (fun endpoint -> primary_vantage t ~endpoint) c.Config.primary_endpoint;
  List.iter
    (fun (v : Config.vantage_spec) ->
      register_vantage t ~name:v.Config.name ~rp:v.Config.rp ~endpoint:v.Config.endpoint)
    c.Config.vantages;
  Option.iter
    (fun period ->
      enable_gossip ~period ?timeout:c.Config.gossip_timeout
        ~overlay:c.Config.gossip_overlay ~overlay_seed:c.Config.gossip_overlay_seed t)
    c.Config.gossip_period;
  Option.iter (fun disk -> enable_persistence t disk) c.Config.persistence

(* One snapshot store per vantage, named after it, created lazily on the
   shared simulated disk. *)
let store_for t name =
  match t.disk with
  | None -> None
  | Some disk -> (
    match List.assoc_opt name t.stores with
    | Some s -> Some s
    | None ->
      let s = Rpki_persist.Store.create disk ~name in
      t.stores <- (name, s) :: t.stores;
      Some s)

let vantage_store t ~name =
  match store_for t name with
  | Some s -> s
  | None -> invalid_arg "Loop.vantage_store: persistence is not enabled"

let note_epoch t name epoch =
  t.epochs <- (name, epoch) :: List.remove_assoc name t.epochs

let known_vantage t name =
  String.equal name (Relying_party.name t.rp)
  || List.exists (fun v -> String.equal v.Gossip.v_name name) t.vantages

let kill_vantage t ~name =
  if not (known_vantage t name) then
    invalid_arg ("Loop.kill_vantage: unknown vantage " ^ name);
  if not (is_dead t name) then t.dead <- name :: t.dead

(* Bring a killed vantage back as a *new relying-party instance* under the
   same name: process state (caches, memos, gossip memory) is gone; only
   what [Relying_party.save] persisted can come back, and only if the
   snapshot survives its own verification.  [make] rebuilds the instance —
   it is handed the pessimistic next log epoch, which [restore] overrides
   with the persisted epoch when the snapshot is good, so a failed restore
   visibly starts a new log incarnation instead of impersonating a
   truncated continuation of the old one. *)
let restart_vantage t ~name ~now ~make =
  if not (is_dead t name) then
    invalid_arg ("Loop.restart_vantage: " ^ name ^ " is not down");
  let next_epoch = 1 + Option.value ~default:0 (List.assoc_opt name t.epochs) in
  let rp = (make ~log_epoch:next_epoch : Relying_party.t) in
  if not (String.equal (Relying_party.name rp) name) then
    invalid_arg "Loop.restart_vantage: the rebuilt relying party must keep the name";
  let recovery =
    match store_for t name with
    | None -> Relying_party.Recovered_fresh Relying_party.No_snapshot
    | Some store -> Relying_party.restore rp store
  in
  let primary = String.equal name (Relying_party.name t.rp) in
  if primary then t.rp <- rp;
  List.iter
    (fun v -> if String.equal v.Gossip.v_name name then v.Gossip.v_rp <- rp)
    t.vantages;
  if primary then begin
    (* the RTR cache is fed by the primary: rehydrate its serial line from
       the snapshot, or concede a session-visible reset when nothing could
       be restored.  Holds are process state and do not survive. *)
    (match recovery with
    | Relying_party.Recovered { rc_rtr_serial; _ } ->
      Rpki_rtr.Server.restore t.rtr ~serial:rc_rtr_serial ~vrps:(Relying_party.vrps rp)
    | Relying_party.Recovered_fresh _ ->
      Rpki_rtr.Server.restore t.rtr ~serial:0 ~vrps:[]);
    t.held_uris <- [];
    (* the per-point last-good memory is the victim's memory: it survives
       exactly when the snapshot did *)
    (match recovery with
    | Relying_party.Recovered _ -> ()
    | Relying_party.Recovered_fresh _ -> t.point_good <- [])
  end;
  (match t.gossip with
  | None -> ()
  | Some g ->
    Gossip.forget_receiver g ~name;
    (match recovery with
    | Relying_party.Recovered _ -> Gossip.reseed_receiver g ~name
    | Relying_party.Recovered_fresh _ -> ()));
  note_epoch t name (Relying_party.log_epoch rp);
  t.dead <- List.filter (fun n -> not (String.equal n name)) t.dead;
  t.recoveries <- (now, name, recovery) :: t.recoveries;
  recovery

let recoveries t = List.rev t.recoveries

(* Freeze the router-visible VRPs of every prefix a publication point
   contributes, at the last state validated before any contradiction was
   served.  Prefixes the tainted view adds beyond the last-good set are
   pinned empty — the replayed object is stripped, not trusted. *)
let install_hold t ~uri =
  if not (List.mem_assoc uri t.held_uris) then begin
    let good = Option.value ~default:[] (List.assoc_opt uri t.point_good) in
    let current =
      if is_dead t (Relying_party.name t.rp) then []
      else Relying_party.point_vrps t.rp ~uri
    in
    let prefixes =
      List.sort_uniq compare
        (List.map (fun (v : Vrp.t) -> v.Vrp.prefix) (good @ current))
    in
    List.iter
      (fun prefix ->
        let pinned =
          List.filter (fun (v : Vrp.t) -> V4.Prefix.equal v.Vrp.prefix prefix) good
        in
        Rpki_rtr.Server.hold t.rtr ~prefix ~vrps:pinned)
      prefixes;
    if prefixes <> [] then t.held_uris <- (uri, prefixes) :: t.held_uris
  end

let release_hold t ~uri =
  match List.assoc_opt uri t.held_uris with
  | None -> ()
  | Some prefixes ->
    List.iter (fun prefix -> Rpki_rtr.Server.release t.rtr ~prefix) prefixes;
    t.held_uris <- List.remove_assoc uri t.held_uris

(* Reachability of a publication point from the RP's AS, judged on the data
   plane computed at the previous tick.  Before the first tick the RP has
   never applied RPKI filtering, so everything is reachable (deployment
   starts from working routing). *)
let point_reachable t (pp : Pub_point.t) =
  match t.net with
  | None -> true
  | Some net ->
    Data_plane.reaches net ~src:(Relying_party.asn t.rp) ~addr:(Pub_point.addr pp)
      ~expected:(Pub_point.host_asn pp)

let regression_uri = function
  | Relying_party.Serial_regression { rg_uri; _ }
  | Relying_party.Content_equivocation { rg_uri; _ } -> rg_uri

let step t ~now =
  Universe.refresh_mirrors t.universe;
  Universe.refresh_rrdp t.universe;
  (* batch scheduling: one universe digest for the whole tick — the walk
     plan every vantage shares — computed here rather than once per
     vantage.  The shared plane's per-tick statistics baseline is reset at
     the same boundary. *)
  (match t.valcache with
  | Some vc -> Valcache.begin_tick vc ~digest:(Valcache.universe_digest t.universe)
  | None -> ());
  let verifies_before = Rpki_crypto.Rsa.verification_count () in
  let primary_alive = not (is_dead t (Relying_party.name t.rp)) in
  let result =
    if primary_alive then
      Some
        (Relying_party.sync t.rp ~now ~universe:t.universe ~transport:t.transport
           ~policy:t.fetch_policy ?valcache:t.valcache ())
    else None
  in
  (* every other live vantage observes the same universe this tick, over its
     own transport (same previous-tick data plane, priced from its own AS) —
     filling its transparency log with what *it* was served.  All vantages
     consult the same shared validation plane: content they observe
     identically is verified once, content a split view forked hashes to a
     different cache line and is verified per view. *)
  List.iter
    (fun (v : Gossip.vantage) ->
      if (not (v.Gossip.v_rp == t.rp)) && not (is_dead t v.Gossip.v_name) then
        ignore
          (Relying_party.sync v.Gossip.v_rp ~now ~universe:t.universe
             ~transport:v.Gossip.v_transport ~policy:t.fetch_policy
             ?valcache:t.valcache ()))
    t.vantages;
  let sig_checks = Rpki_crypto.Rsa.verification_count () - verifies_before in
  let sig_saved =
    match t.valcache with
    | Some vc -> (Valcache.tick_stats vc).Valcache.sig_saved
    | None -> 0
  in
  (* the sync's diff becomes the RTR cache's next serial delta; the sync's
     data staleness rides along so routers can tell fresh serials over old
     data from fresh data.  A dead primary feeds nothing: routers keep the
     cache's last state, exactly as real RTR clients would. *)
  (match result with
  | Some r ->
    (* the diff was computed against the previous sync's VRPs — recover that
       base and fingerprint it, so a diff fed against any other state is a
       typed error instead of silent delta-window corruption *)
    let base =
      Vrp.apply_diff r.Relying_party.vrps (Vrp.invert_diff r.Relying_party.diff)
    in
    Rpki_rtr.Server.publish_diff ~expect_base:(Vrp.fingerprint base) t.rtr
      r.Relying_party.diff;
    Rpki_rtr.Server.set_data_age t.rtr (Relying_party.max_data_age r);
    Rpki_rtr.Server.set_unsafe t.rtr (List.length r.Relying_party.unsafe_vrps)
  | None -> ());
  (* a sync that contradicted the primary's own restored history is local
     evidence — no gossip needed — and freezes the affected prefixes at the
     last-good set before the data plane is rebuilt *)
  let regressions =
    match result with Some r -> r.Relying_party.regressions | None -> []
  in
  List.iter (fun rg -> install_hold t ~uri:(regression_uri rg)) regressions;
  (* routers act on the RTR cache — the primary's feed with any holds
     applied — so the data plane is classified from the cache's view *)
  let rtr_index = Origin_validation.build (Rpki_rtr.Session.cache_vrps (rtr_cache t)) in
  let validity_of r = Origin_validation.classify rtr_index r in
  (* only prefixes whose announcements' validity changed since the previous
     tick are propagated again; the rest keep the previous tick's RIBs *)
  let net =
    Data_plane.build ?prev:t.net ~topo:t.topo ~policy_of:(fun _ -> t.policy) ~validity_of
      t.announcements
  in
  t.net <- Some net;
  let probe_results =
    List.map
      (fun p ->
        ( p.label,
          Data_plane.reaches net ~src:(Relying_party.asn t.rp) ~addr:p.addr
            ~expected:p.expected_origin ))
      t.probes
  in
  let fetch_failures =
    match result with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (uri, st) ->
          match st with
          | Relying_party.Fetched | Relying_party.Fetched_mirror
          | Relying_party.Fetched_rrdp ->
            None (* mirror and RRDP copies are fresh data, not failures *)
          | Relying_party.Stale_cache | Relying_party.Unavailable -> Some uri)
        r.Relying_party.fetches
  in
  (* gossip runs after routing converges: tree-head pulls travel the data
     plane this tick produced, so a partitioned vantage also cannot gossip —
     and neither can a killed one *)
  let gossip_report =
    match t.gossip with
    | Some g when now mod t.gossip_period = 0 ->
      Some (Gossip.round ~alive:(fun n -> not (is_dead t n)) g ~now)
    | _ -> None
  in
  (* cross-vantage evidence (fork or served rollback) that re-verifies from
     scratch under the vantages' own keys also triggers a hold; it lands on
     the next tick's data plane, gossip having run after this one's *)
  (match gossip_report with
  | None -> ()
  | Some rep ->
    let key_of vname =
      List.find_map
        (fun v ->
          if String.equal v.Gossip.v_name vname then
            Some (Relying_party.transparency_key v.Gossip.v_rp)
          else None)
        t.vantages
    in
    (* the proven-honest side of an evidence bundle: for a fork involving
       the primary, the attested record from the *other* vantage; for a
       served rollback, the state recorded earlier under the higher
       manifest number.  A fork between two non-primary monitors proves
       nothing about the primary's own state, so it installs a plain hold. *)
    let primary_name = Relying_party.name t.rp in
    let honest_side = function
      | Gossip.Fork { left; right; _ } ->
        if String.equal left.Gossip.att_vantage primary_name then Some right
        else if String.equal right.Gossip.att_vantage primary_name then Some left
        else None
      | Gossip.Rollback { rb_earlier; _ } -> Some rb_earlier
      | _ -> None
    in
    List.iter
      (fun alarm ->
        match alarm with
        | Gossip.Fork { fork_uri = uri; _ } | Gossip.Rollback { rb_uri = uri; _ } ->
          if Gossip.verify_fork ~key_of alarm then begin
            (* When gossip proves the fork late (period > 1), the tainted
               view has already been absorbed into [point_good] by earlier
               ticks.  Roll last-good back to the newest state this vantage
               itself validated under the proven-honest side's VRP-set
               hash, so the hold freezes at honest data instead of pinning
               the tainted view.  No match (restarted vantage, state never
               seen) leaves last-good alone — the pre-existing fail-safe. *)
            (match honest_side alarm with
            | None -> ()
            | Some side ->
              let vrp_hash =
                side.Gossip.att_obs.Rpki_transparency.Log.ob_vrp_hash
              in
              (match Relying_party.rollback_last_good t.rp ~uri ~vrp_hash with
              | Some vrps ->
                t.point_good <- (uri, vrps) :: List.remove_assoc uri t.point_good
              | None -> ()));
            install_hold t ~uri
          end
        | Gossip.Inconsistent_heads _ | Gossip.Bad_head_signature _
        | Gossip.Bad_inclusion _ | Gossip.Log_reset _ -> ())
      rep.Gossip.r_alarms);
  (* update the per-point last-good memory — but never from a point that is
     under a hold or contradicted history this tick: that state is tainted *)
  (match result with
  | None -> ()
  | Some r ->
    let regressed = List.map regression_uri regressions in
    List.iter
      (fun (uri, _) ->
        if (not (List.mem_assoc uri t.held_uris)) && not (List.mem uri regressed)
        then
          t.point_good <-
            (uri, Relying_party.point_vrps t.rp ~uri)
            :: List.remove_assoc uri t.point_good)
      r.Relying_party.fetches);
  (* durable state is snapshotted after gossip, so the peer heads verified
     this round are part of the baseline a restart gets back *)
  if persistence_enabled t then begin
    let mode = if t.save_full then `Full else `Auto in
    if primary_alive then
      Option.iter
        (fun store ->
          ignore
            (Relying_party.save t.rp ~now ~mode
               ~rtr_serial:(Rpki_rtr.Session.cache_serial (rtr_cache t)) store))
        (store_for t (Relying_party.name t.rp));
    List.iter
      (fun (v : Gossip.vantage) ->
        if (not (v.Gossip.v_rp == t.rp)) && not (is_dead t v.Gossip.v_name) then
          Option.iter
            (fun store -> ignore (Relying_party.save v.Gossip.v_rp ~now ~mode store))
            (store_for t v.Gossip.v_name))
      t.vantages;
    (* scheduled compaction: fold each chain back into its base.  A
       detected disk fault leaves the store segmented and loadable, so the
       result is deliberately ignored here — restore still works either
       way, and benches read the fault trail off the disk itself *)
    if t.compact_every > 0 && now mod t.compact_every = 0 then
      List.iter
        (fun (_, store) -> ignore (Relying_party.compact_store store ~now))
        t.stores
  end;
  (* one batched notify per tick: the sync's publish and every hold taken
     this tick (local regressions and gossip-verified evidence) coalesce
     into a single Serial Notify fan-out to the attached sessions *)
  ignore (Rpki_rtr.Server.flush ~domains:t.rtr_domains t.rtr);
  let record =
    { time = now;
      vrp_count =
        (match result with
        | Some r -> List.length r.Relying_party.vrps
        | None -> List.length (Rpki_rtr.Session.cache_vrps (rtr_cache t)));
      issue_count =
        (match result with Some r -> List.length r.Relying_party.issues | None -> 0);
      fetch_failures;
      probe_results;
      vrp_diff =
        (match result with Some r -> r.Relying_party.diff | None -> Vrp.empty_diff);
      rtr_serial = Rpki_rtr.Session.cache_serial (rtr_cache t);
      points_reused =
        (match result with Some r -> r.Relying_party.points_reused | None -> 0);
      points_revalidated =
        (match result with Some r -> r.Relying_party.points_revalidated | None -> 0);
      sync_elapsed =
        (match result with Some r -> r.Relying_party.sync_elapsed | None -> 0);
      max_data_age =
        (match result with Some r -> Relying_party.max_data_age r | None -> 0);
      budget_exhausted =
        (match result with Some r -> r.Relying_party.budget_exhausted | None -> false);
      gossip_report;
      regressions;
      rtr_holds = List.length (Rpki_rtr.Session.cache_holds (rtr_cache t));
      sig_checks;
      sig_saved;
      unsafe_count =
        (match result with
        | Some r -> List.length r.Relying_party.unsafe_vrps
        | None -> 0) }
  in
  (* epoch-based eviction at the tick boundary: entries whose every
     consulted validity window has closed can never serve another hit *)
  (match t.valcache with
  | Some vc when t.valcache_evict -> Valcache.end_tick vc ~now
  | _ -> ());
  if t.keep_history then t.history <- record :: t.history;
  record

let history t = List.rev t.history

let first_fork_tick t =
  List.find_map
    (fun r ->
      match r.gossip_report with
      | Some rep when List.exists Gossip.is_fork rep.Gossip.r_alarms -> Some r.time
      | _ -> None)
    (history t)

let first_rollback_tick t =
  List.find_map
    (fun r ->
      let local = r.regressions <> [] in
      let gossiped =
        match r.gossip_report with
        | Some rep -> List.exists Gossip.is_rollback rep.Gossip.r_alarms
        | None -> false
      in
      if local || gossiped then Some r.time else None)
    (history t)

let pp_record fmt r =
  Format.fprintf fmt "%a: %d VRPs (%+d/-%d), %d issues, %d fetch failures, rtr#%d, probes: %s"
    Rtime.pp r.time r.vrp_count
    (List.length r.vrp_diff.Vrp.added)
    (List.length r.vrp_diff.Vrp.removed)
    r.issue_count
    (List.length r.fetch_failures)
    r.rtr_serial
    (String.concat ", "
       (List.map (fun (l, ok) -> Printf.sprintf "%s=%s" l (if ok then "up" else "DOWN"))
          r.probe_results));
  match r.gossip_report with
  | None -> ()
  | Some rep ->
    Format.fprintf fmt ", gossip: %d alarm(s)%s"
      (List.length rep.Gossip.r_alarms)
      (if List.exists Gossip.is_fork rep.Gossip.r_alarms then " [FORK]" else "")

(* --- the canned Section 6 scenario --- *)

type section6 = {
  sim : t;
  model : Model.t;
  continental_repo : Pub_point.t;
  target_filename : string; (* the ROA whose corruption starts the spiral *)
}

(* Figure 5 (right) state: model RPKI plus Sprint's covering ROA; the small
   topology with every repository host attached; Continental Broadband
   hosting its own repository inside 63.174.16.0/20 (AS 17054). *)
let section6_scenario ?(policy = Policy.Drop_invalid) ?grace ?(mirrored = false)
    ?(rrdp = false) ?validity ?refresh_interval () =
  let model = Model.build ?validity ?refresh_interval () in
  let _ = Model.add_fig5_right_roa model ~now:Rtime.epoch in
  let s = Topo_gen.small_scenario () in
  let topo = s.Topo_gen.small_topo in
  (* attach the repository-hosting ASes *)
  Topology.link topo ~provider:s.Topo_gen.t1a ~customer:Model.as_sprint;
  Topology.link topo ~provider:s.Topo_gen.mid1 ~customer:Model.as_etb;
  Topology.link topo ~provider:s.Topo_gen.t1b ~customer:Model.as_arin_host;
  (* AS 17054 (Continental) is already in the topology as the "victim" *)
  let ann prefix origin = { Propagation.prefix = V4.p prefix; origin } in
  let announcements =
    [ ann "199.5.26.0/24" Model.as_arin_host;       (* ARIN repo; no ROA: unknown *)
      ann "63.161.0.0/16" Model.as_sprint;           (* Sprint repo; valid *)
      ann "63.170.0.0/16" Model.as_etb;              (* ETB repo; valid *)
      ann "63.174.16.0/20" Model.as_continental ]    (* Continental repo; valid iff /20 ROA fetched *)
  in
  let rp = Model.relying_party ~asn:s.Topo_gen.source ?grace model in
  (* optional mitigation (draft-sidr-multiple-publication-points): mirror
     Continental's repository inside Sprint's address space, whose route
     does not depend on Continental's own objects *)
  if mirrored then begin
    let mirror =
      Pub_point.create ~uri:"rsync://mirror.sprint.net/continental"
        ~addr:(V4.addr_of_string_exn "63.161.200.1") ~host_asn:Model.as_sprint
    in
    Universe.add_mirror model.Model.universe
      ~of_uri:(Pub_point.uri (Authority.pub model.Model.continental)) mirror
  end;
  (* optional RRDP delta service (RFC 8182) for Continental's repository,
     its notification endpoint likewise hosted in Sprint's address space *)
  if rrdp then begin
    let endpoint =
      Pub_point.create ~uri:"https://rrdp.sprint.net/continental"
        ~addr:(V4.addr_of_string_exn "63.161.200.2") ~host_asn:Model.as_sprint
    in
    Universe.add_rrdp model.Model.universe
      ~of_uri:(Pub_point.uri (Authority.pub model.Model.continental)) endpoint
  end;
  let probes =
    [ { label = "continental-repo"; addr = Model.continental_repo_addr;
        expected_origin = Model.as_continental };
      { label = "sprint-repo"; addr = Model.sprint_repo_addr; expected_origin = Model.as_sprint } ]
  in
  let sim = create ~universe:model.Model.universe ~topo ~policy ~rp ~announcements ~probes in
  let continental_repo = Authority.pub model.Model.continental in
  { sim; model; continental_repo; target_filename = model.Model.roa_target20 }

(* Run the Side Effect 7 timeline: healthy ticks, a transient corruption of
   the critical ROA, repair, then more ticks.  Returns the full history. *)
let run_section6 ?(policy = Policy.Drop_invalid) ?(flush_cache_at = None) ?grace
    ?(mirrored = false) () =
  let sc = section6_scenario ~policy ?grace ~mirrored () in
  let t = sc.sim in
  (* ticks 1-2: healthy *)
  ignore (step t ~now:1);
  ignore (step t ~now:2);
  (* tick 3: the RP receives a corrupted copy of the critical ROA *)
  let fault =
    Fault.corrupt_object sc.continental_repo ~filename:sc.target_filename ()
  in
  ignore (step t ~now:3);
  (* tick 4: the repository is repaired... *)
  Option.iter Fault.repair fault;
  ignore (step t ~now:4);
  (* ticks 5-7: ...but can the RP see the repair? *)
  ignore (step t ~now:5);
  (match flush_cache_at with
  | Some tick when tick <= 6 -> Relying_party.flush_cache t.rp
  | _ -> ());
  ignore (step t ~now:6);
  ignore (step t ~now:7);
  (sc, history t)

(* --- the canned split-view scenario --- *)

type split_view = {
  sv_sim : t;
  sv_model : Model.t;
  sv_target_filename : string;
  sv_monitors : string list;
}

(* Monitor vantages sit at the repository-hosting ASes already attached to
   the Section 6 topology; each log endpoint lives inside a prefix that AS
   announces, so gossip pulls have a route to travel. *)
let monitor_specs =
  [ ("monitor-sprint", "63.161.200.9");
    ("monitor-etb", "63.170.200.9");
    ("monitor-arin", "199.5.26.9") ]

let monitor_asn = function
  | "monitor-sprint" -> Model.as_sprint
  | "monitor-etb" -> Model.as_etb
  | "monitor-arin" -> Model.as_arin_host
  | name -> invalid_arg ("Loop.monitor_asn: " ^ name)

(* Beyond the three named monitors, further vantages are synthesized
   round-robin over the same repository-hosting ASes, each with its own log
   endpoint inside a prefix that AS announces — the scaling configuration
   for the multi-vantage experiments. *)
let monitor_spec i =
  match List.nth_opt monitor_specs i with
  | Some (name, addr) -> (name, addr, monitor_asn name)
  | None -> (
    let i' = i - List.length monitor_specs in
    let j = (i' / 3) + 1 in
    match i' mod 3 with
    | 0 ->
      ( Printf.sprintf "monitor-sprint-%d" j,
        Printf.sprintf "63.161.%d.%d" (201 + (j / 200)) (10 + (j mod 200)),
        Model.as_sprint )
    | 1 ->
      ( Printf.sprintf "monitor-etb-%d" j,
        Printf.sprintf "63.170.%d.%d" (201 + (j / 200)) (10 + (j mod 200)),
        Model.as_etb )
    | _ ->
      (* ARIN's repo prefix is a single /24: capped well below its width *)
      if j > 240 then invalid_arg "Loop.split_view_scenario: too many monitors";
      (Printf.sprintf "monitor-arin-%d" j, Printf.sprintf "199.5.26.%d" (10 + j),
       Model.as_arin_host))

let split_view_scenario ?(policy = Policy.Drop_invalid) ?(grace = 4) ?(monitors = 2)
    ?(gossip_period = 1) ?(overlay = Gossip.Overlay.Full_mesh)
    ?(overlay_seed = Gossip.Overlay.default_seed)
    ?(fetch_policy = Relying_party.resilient_policy)
    ?validity ?refresh_interval ?(valcache = true) () =
  if monitors < 0 then invalid_arg "Loop.split_view_scenario: negative monitors";
  let model = Model.build ?validity ?refresh_interval () in
  let _ = Model.add_fig5_right_roa model ~now:Rtime.epoch in
  let s = Topo_gen.small_scenario () in
  let topo = s.Topo_gen.small_topo in
  Topology.link topo ~provider:s.Topo_gen.t1a ~customer:Model.as_sprint;
  Topology.link topo ~provider:s.Topo_gen.mid1 ~customer:Model.as_etb;
  Topology.link topo ~provider:s.Topo_gen.t1b ~customer:Model.as_arin_host;
  let ann prefix origin = { Propagation.prefix = V4.p prefix; origin } in
  let announcements =
    [ ann "199.5.26.0/24" Model.as_arin_host;
      ann "63.161.0.0/16" Model.as_sprint;
      ann "63.170.0.0/16" Model.as_etb;
      ann "63.174.16.0/20" Model.as_continental;
      (* the victim vantage's own log endpoint: benchmark space with no
         covering ROA, so the route is unknown and survives filtering *)
      ann "198.18.0.0/24" s.Topo_gen.source ]
  in
  (* the victim runs grace (Suspenders): a forked-away VRP is held for
     [grace] ticks, which is the window gossip detection has to beat *)
  let rp = Model.relying_party ~name:"victim-rp" ~asn:s.Topo_gen.source ~grace model in
  let probes =
    [ { label = "continental-repo"; addr = Model.continental_repo_addr;
        expected_origin = Model.as_continental };
      { label = "sprint-repo"; addr = Model.sprint_repo_addr; expected_origin = Model.as_sprint } ]
  in
  let sim = create ~universe:model.Model.universe ~topo ~policy ~rp ~announcements ~probes in
  let chosen = List.init monitors monitor_spec in
  configure sim
    { Config.default with
      Config.fetch_policy; valcache;
      primary_endpoint =
        Some
          (Pub_point.create ~uri:"rsync://victim-rp.example/log"
             ~addr:(V4.addr_of_string_exn "198.18.0.7") ~host_asn:s.Topo_gen.source);
      vantages =
        List.map
          (fun (name, addr, asn) ->
            { Config.name; rp = Model.relying_party ~name ~asn model;
              endpoint =
                Pub_point.create
                  ~uri:("rsync://" ^ name ^ ".example/log")
                  ~addr:(V4.addr_of_string_exn addr) ~host_asn:asn })
          chosen;
      gossip_period = (if monitors > 0 then Some gossip_period else None);
      gossip_overlay = overlay; gossip_overlay_seed = overlay_seed };
  { sv_sim = sim; sv_model = model; sv_target_filename = model.Model.roa_target20;
    sv_monitors = List.map (fun (n, _, _) -> n) chosen }

(* --- the canned restart / rollback scenario --- *)

type restart_rig = {
  rr_sv : split_view;
  rr_disk : Rpki_persist.Disk.t;
  rr_respawn : log_epoch:int -> Relying_party.t;
}

(* The split-view setting rigged for crash-and-rollback experiments: the
   victim vantage gets a snapshot store on [rr_disk] (when [persist]), and
   [rr_respawn] rebuilds the victim instance for [restart_vantage] — same
   name, AS, trust anchor and grace as the original, so the only thing a
   restart changes is what survived on disk. *)
let restart_scenario ?(persist = true) ?(grace = 4) ?(monitors = 2)
    ?(gossip_period = 1) ?valcache () =
  let sv = split_view_scenario ~grace ~monitors ~gossip_period ?valcache () in
  let disk = Rpki_persist.Disk.create () in
  if persist then enable_persistence sv.sv_sim disk;
  let asn = Relying_party.asn sv.sv_sim.rp in
  let respawn ~log_epoch =
    Model.relying_party ~name:"victim-rp" ~asn ~grace ~log_epoch sv.sv_model
  in
  { rr_sv = sv; rr_disk = disk; rr_respawn = respawn }

(* --- scenarios on generated worlds --------------------------------------

   The same split-view / stall / restart settings, parameterized by an
   {!Rpki_world.Synthesis} world instead of the fixed Section 6 model: the
   graph is generated (power-law, thousands of ASes), the universe is
   synthesized onto it, monitor vantages are placed by a
   {!Rpki_world.Placement} policy, and transport is priced off the
   generated data plane exactly as for the canned scenarios. *)

module World = Rpki_world.Synthesis
module Placement = Rpki_world.Placement

type world_rig = {
  wr_sim : t;
  wr_world : World.world;
  wr_target_filename : string;     (* the victim's ROA — the fork target *)
  wr_target_authority : Authority.t;
  wr_monitors : string list;
  wr_disk : Rpki_persist.Disk.t option;
  wr_respawn : (log_epoch:int -> Relying_party.t) option;
}

(* A fetch policy scaled to the world: the resilient shape, with the sync
   budget sized to the number of publication points times a generous
   per-point transport allowance (generated graphs have diameter ~5-6). *)
let world_fetch_policy (w : World.world) =
  let points = List.length (World.cas w) + 1 in
  { Relying_party.resilient_policy with
    Relying_party.sync_budget =
      max Relying_party.resilient_policy.Relying_party.sync_budget (64 * points) }

let world_scenario ?(policy = Policy.Drop_invalid) ?(grace = 4) ?(monitors = 2)
    ?(placement = Placement.By_degree) ?(gossip_period = 1)
    ?(overlay = Gossip.Overlay.Full_mesh)
    ?(overlay_seed = Gossip.Overlay.default_seed) ?fetch_policy
    ?(valcache = true) ?(persist = false) ?(world = World.default_spec) () =
  if monitors < 0 then invalid_arg "Loop.world_scenario: negative monitors";
  let w = World.build world in
  let g = World.graph w in
  let rp_asn = World.rp_asn w in
  let tals = [ Relying_party.tal_of_authority (World.root w) ] in
  let rp = Relying_party.create ~name:"victim-rp" ~asn:rp_asn ~tals ~grace () in
  let monitor_asns =
    Placement.vantage_asns g placement ~count:monitors ~exclude:[ rp_asn ]
  in
  let announcements =
    World.base_announcements w
    @ List.map (World.announcement_for w) monitor_asns
    |> List.sort_uniq compare
  in
  let probes =
    [ { label = "victim-prefix";
        addr = World.host_addr w ~asn:(World.victim w) ~host:1;
        expected_origin = World.victim w } ]
  in
  let sim =
    create ~universe:(World.universe w) ~topo:(As_graph.topology g) ~policy ~rp
      ~announcements ~probes
  in
  let fetch_policy =
    match fetch_policy with Some p -> p | None -> world_fetch_policy w
  in
  let monitor_name asn = Printf.sprintf "monitor-as%d" asn in
  configure sim
    { Config.default with
      Config.fetch_policy; valcache;
      primary_endpoint =
        Some
          (Pub_point.create ~uri:"rsync://victim-rp.world/log"
             ~addr:(World.host_addr w ~asn:rp_asn ~host:7) ~host_asn:rp_asn);
      vantages =
        List.map
          (fun asn ->
            let name = monitor_name asn in
            { Config.name;
              rp = Relying_party.create ~name ~asn ~tals ();
              endpoint =
                Pub_point.create
                  ~uri:(Printf.sprintf "rsync://%s.world/log" name)
                  ~addr:(World.host_addr w ~asn ~host:9) ~host_asn:asn })
          monitor_asns;
      gossip_period = (if monitors > 0 then Some gossip_period else None);
      gossip_overlay = overlay; gossip_overlay_seed = overlay_seed };
  let disk, respawn =
    if persist then begin
      let disk = Rpki_persist.Disk.create () in
      enable_persistence sim disk;
      ( Some disk,
        Some (fun ~log_epoch ->
            Relying_party.create ~name:"victim-rp" ~asn:rp_asn ~tals ~grace
              ~log_epoch ()) )
    end
    else (None, None)
  in
  { wr_sim = sim; wr_world = w; wr_target_filename = World.victim_roa w;
    wr_target_authority = World.victim_ca w;
    wr_monitors = List.map monitor_name monitor_asns; wr_disk = disk;
    wr_respawn = respawn }

(* --- the canned fault-mix scenario --------------------------------------

   Corpus-calibrated background noise over a closed loop: a
   {!Rpki_repo.Fault_mix} engine rolls every authority each tick against a
   fault rate, injecting the empirical RP error mix (expired CRLs, withheld
   manifests, seqnum gaps, expired / forward-dated ROAs, RFC 3779
   overclaims, manifest regressions, transport failures) while the primary
   syncs under a configurable unsafe-VRP policy.  The rig also names the
   sub-CA whose loss the graceful-degradation demo studies: whacking its
   publication point makes its resources join the failed set, turning the
   parent's covering ROA into an unsafe VRP. *)

type fault_mix_rig = {
  fm_sim : t;
  fm_engine : Fault_mix.t;
  fm_targets : Authority.t list;     (* authorities the engine rolls *)
  fm_victim_authority : Authority.t; (* the sub-CA the downgrade demo whacks *)
  fm_victim_uri : string;            (* its publication point *)
  fm_victim_prefix : V4.Prefix.t;    (* the prefix its ROA protects *)
  fm_victim_origin : int;            (* the legitimate origin AS *)
  fm_model : Model.t option;         (* the canned fixture, when used *)
  fm_world : World.world option;     (* the generated world, when used *)
}

let fault_mix_scenario ?(policy = Policy.Drop_invalid) ?grace
    ?(unsafe = Relying_party.Unsafe_accept)
    ?(fetch_policy = Relying_party.default_policy) ?(seed = 0x5eed)
    ?(rate = 0.) ?repair_after ?world () =
  let engine = Fault_mix.create ~seed ~rate ?repair_after () in
  let fetch_policy = { fetch_policy with Relying_party.unsafe } in
  match world with
  | None ->
    (* the Figure 5 (right) fixture: Continental's /20 ROA under Sprint's
       covering /12-13 ROA — exactly the covering-ROA shape the unsafe
       analysis is about *)
    let sc = section6_scenario ~policy ?grace () in
    set_fetch_policy sc.sim fetch_policy;
    let m = sc.model in
    { fm_sim = sc.sim; fm_engine = engine;
      fm_targets =
        [ m.Model.arin; m.Model.sprint; m.Model.etb; m.Model.continental ];
      fm_victim_authority = m.Model.continental;
      fm_victim_uri = Pub_point.uri (Authority.pub m.Model.continental);
      fm_victim_prefix = V4.p "63.174.16.0/20";
      fm_victim_origin = Model.as_continental;
      fm_model = Some m; fm_world = None }
  | Some spec ->
    let rig = world_scenario ~policy ~monitors:0 ~fetch_policy ~world:spec () in
    let w = rig.wr_world in
    { fm_sim = rig.wr_sim; fm_engine = engine;
      fm_targets = World.root w :: List.map snd (World.cas w);
      fm_victim_authority = rig.wr_target_authority;
      fm_victim_uri = Pub_point.uri (Authority.pub rig.wr_target_authority);
      fm_victim_prefix = World.prefix_of w (World.victim w);
      fm_victim_origin = World.victim w;
      fm_model = None; fm_world = Some w }

(* One fault-mix tick: roll the engine (repairs due faults, injects fresh
   ones on the authorities and the primary's transport), then run the
   ordinary loop step.  Returns the tick's fresh injections with its
   record. *)
let fault_mix_step rig ~now =
  let injections =
    Fault_mix.tick rig.fm_engine ~targets:rig.fm_targets
      ~transports:[ transport rig.fm_sim ] ~now
  in
  let record = step rig.fm_sim ~now in
  (injections, record)

(* --- the canned long-run soak scenario ----------------------------------

   Endurance, not detection: run the split-view setting for thousands of
   ticks under configurable churn, with persistence on, and measure the
   three growth curves the refactor is supposed to flatten — disk bytes per
   save (O(delta) segments vs O(history) full snapshots), Valcache
   residency (epoch eviction vs monotone growth) and Gc live words. *)

type soak_config = {
  sk_ticks : int;
  sk_churn_every : int;      (* maintain ARIN's subtree every n ticks; 0 = no churn *)
  sk_compact_every : int;    (* fold persistence chains every n ticks; 0 = never *)
  sk_evict : bool;           (* epoch-based Valcache eviction at tick end *)
  sk_full_snapshots : bool;  (* force O(history) full saves (the baseline) *)
  sk_valcache : bool;
  sk_monitors : int;
  sk_gossip_period : int;
  sk_sample_every : int;     (* record a sample every n ticks (and at the end) *)
  sk_validity : int option;  (* issuance validity window, in ticks *)
  sk_refresh_interval : int option;
  sk_world : World.spec option;
                             (* Some spec = soak a generated world (churn then
                                maintains the synthesized root's subtree);
                                None = the canned small scenario *)
}

let default_soak =
  { sk_ticks = 2000; sk_churn_every = 0; sk_compact_every = 64; sk_evict = true;
    sk_full_snapshots = false; sk_valcache = true; sk_monitors = 1;
    sk_gossip_period = 16; sk_sample_every = 100; sk_validity = None;
    sk_refresh_interval = None; sk_world = None }

type soak_sample = {
  so_tick : int;
  so_live_words : int;       (* Gc.stat live words after a major collection *)
  so_snapshot_bytes : int;   (* the primary store's base snapshot size *)
  so_chain_bytes : int;      (* base + segments: what a restore must read *)
  so_segments : int;         (* sealed segments beyond the base *)
  so_save_bytes : int;       (* disk bytes written since the previous sample *)
  so_log_size : int;         (* primary transparency-log leaves *)
  so_residency : Valcache.residency option;
}

type soak_report = {
  so_config : soak_config;
  so_samples : soak_sample list;  (* oldest first; the last is the final state *)
  so_saves : int;                 (* saves executed across all vantages *)
  so_total_save_bytes : int;      (* cumulative disk bytes written *)
  so_bytes_per_save : float;
}

let run_soak ?(config = default_soak) () =
  let c = config in
  if c.sk_ticks < 1 then invalid_arg "Loop.run_soak: ticks must be positive";
  let t, churn =
    match c.sk_world with
    | None ->
      let sv =
        split_view_scenario ~monitors:c.sk_monitors ~gossip_period:c.sk_gossip_period
          ?validity:c.sk_validity ?refresh_interval:c.sk_refresh_interval
          ~valcache:c.sk_valcache ()
      in
      (sv.sv_sim, fun ~now -> Authority.maintain sv.sv_model.Model.arin ~now)
    | Some wspec ->
      (* the soak's validity knobs override the world spec's, so one config
         drives both the canned and the generated arms *)
      let wspec =
        { wspec with
          World.validity =
            (match c.sk_validity with Some _ -> c.sk_validity | None -> wspec.World.validity);
          refresh_interval =
            (match c.sk_refresh_interval with
            | Some _ -> c.sk_refresh_interval
            | None -> wspec.World.refresh_interval) }
      in
      let rig =
        world_scenario ~monitors:c.sk_monitors ~gossip_period:c.sk_gossip_period
          ~valcache:c.sk_valcache ~world:wspec ()
      in
      (rig.wr_sim, fun ~now -> Authority.maintain (World.root rig.wr_world) ~now)
  in
  let disk = Rpki_persist.Disk.create () in
  enable_persistence t disk;
  t.valcache_evict <- c.sk_evict;
  t.compact_every <- c.sk_compact_every;
  t.save_full <- c.sk_full_snapshots;
  t.keep_history <- false;
  let primary_store = vantage_store t ~name:(Relying_party.name t.rp) in
  let vantage_count = 1 + c.sk_monitors in
  let samples = ref [] in
  let last_written = ref 0 in
  let sample ~tick =
    Gc.full_major ();
    let written = Rpki_persist.Disk.bytes_written disk in
    samples :=
      { so_tick = tick;
        so_live_words = (Gc.stat ()).Gc.live_words;
        so_snapshot_bytes = Rpki_persist.Store.snapshot_bytes primary_store;
        so_chain_bytes = Rpki_persist.Store.chain_bytes primary_store;
        so_segments = Rpki_persist.Store.segment_count primary_store;
        so_save_bytes = written - !last_written;
        so_log_size = Rpki_transparency.Log.size (Relying_party.transparency_log t.rp);
        so_residency = Option.map Valcache.residency t.valcache }
      :: !samples;
    last_written := written
  in
  for now = 1 to c.sk_ticks do
    if c.sk_churn_every > 0 && now mod c.sk_churn_every = 0 then churn ~now;
    ignore (step t ~now);
    if now mod c.sk_sample_every = 0 || now = c.sk_ticks then sample ~tick:now
  done;
  let saves = c.sk_ticks * vantage_count in
  let total = Rpki_persist.Disk.bytes_written disk in
  { so_config = c; so_samples = List.rev !samples; so_saves = saves;
    so_total_save_bytes = total;
    so_bytes_per_save = float_of_int total /. float_of_int (max 1 saves) }
