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
  mutable rtr_domains : int;      (* ignored: benchmark/ reads it to pass
                                     [Server.flush ?domains] (ROADMAP item 1,
                                     Stage B) *)
  announcements : Propagation.announcement list;
  probes : probe list;
  transport : Transport.t;        (* priced off the previous tick's data plane *)
  mutable fetch_policy : Relying_party.fetch_policy;
  mutable net : Data_plane.network option; (* data plane after the last tick *)
  mutable history : tick_record list;      (* newest first *)
  mutable vantages : Gossip.vantage list;  (* gossip mesh members, in
                                              registration order *)
  mutable gossip : Gossip.t option;        (* set by [configure] *)
  mutable gossip_period : int;    (* run a gossip round every this many ticks *)
  mutable disk : Rpki_persist.Disk.t option;     (* set by [configure] *)
  mutable stores : (string * Rpki_persist.Store.t) list; (* per-vantage snapshots *)
  mutable dead : string list;     (* killed vantages: no sync, no gossip, no save *)
  mutable epochs : (string * int) list;    (* last known log epoch per vantage *)
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

(* The latency oracle of a transport whose requests leave from AS [src ()]:
   one transport tick per forwarding hop on the data plane the previous
   tick produced — the Section 6 circularity as time, not just a boolean.
   Traffic delivered to the wrong origin (a hijacker) is no route at all.
   Before the first tick routing works and nothing has been priced yet.

   The oracle keeps what it has traced, the origin reached and the hop
   count per source AS and destination address, while the data plane keeps
   the forwarding state it traced them on ([Data_plane.same_forwarding]),
   as a quiet tick's incremental build does; any other data plane drops
   them.  The host AS is checked on every call.  Each transport has its
   own oracle, and syncs and gossip plans run on one Domain. *)
let latency_oracle t ~src =
  let traced = Hashtbl.create 16 and under = ref None in
  fun (pp : Pub_point.t) ->
    match t.net with
    | None -> Some 0
    | Some net as current -> (
      (match !under with
      | Some n when Data_plane.same_forwarding n net -> ()
      | _ -> Hashtbl.reset traced);
      under := current;
      let src = src () and addr = Pub_point.addr pp in
      let reached =
        match Hashtbl.find_opt traced (src, addr) with
        | Some r -> r
        | None ->
          let r =
            match Data_plane.trace net ~src ~addr with
            | Data_plane.Delivered { origin; hops } -> Some (origin, List.length hops)
            | Data_plane.No_route _ | Data_plane.Loop _ -> None
          in
          Hashtbl.add traced (src, addr) r;
          r
      in
      match reached with
      | Some (origin, hops) when origin = Pub_point.host_asn pp -> Some hops
      | Some _ | None -> None)

let create ~universe ~topo ~policy ~rp ~announcements ~probes =
  let t =
    { universe; topo; policy; rp; rtr = Rpki_rtr.Server.create (); rtr_domains = 1;
      announcements; probes;
      transport = Transport.create (); fetch_policy = Relying_party.default_policy;
      net = None; history = []; vantages = []; gossip = None;
      gossip_period = 1; disk = None; stores = []; dead = []; epochs = [];
      point_good = []; held_uris = [];
      valcache = Some (Valcache.create ()); valcache_evict = true;
      compact_every = 0; save_full = false; keep_history = true }
  in
  Transport.set_latency_of t.transport
    (latency_oracle t ~src:(fun () -> Relying_party.asn t.rp));
  t

let rtr_server t = t.rtr
let rtr_cache t = Rpki_rtr.Server.cache t.rtr
let transport t = t.transport

(* --- vantages and gossip --- *)

let add_vantage t v =
  if Option.is_some t.gossip then
    invalid_arg "Loop.configure: gossip already enabled; register vantages first";
  if List.exists (fun w -> String.equal w.Gossip.v_name v.Gossip.v_name) t.vantages then
    invalid_arg ("Loop: duplicate vantage " ^ v.Gossip.v_name);
  t.vantages <- t.vantages @ [ v ]

let vantage t ~name =
  match List.find_opt (fun v -> String.equal v.Gossip.v_name name) t.vantages with
  | Some v -> v
  | None -> invalid_arg ("Loop.vantage: unknown vantage " ^ name)

let vantage_transport t ~name = (vantage t ~name).Gossip.v_transport

let gossip_mesh t = t.gossip

let is_dead t name = List.mem name t.dead

(* --- configuration record --- *)

module Config = struct
  type vantage_spec = {
    name : string;
    rp : Relying_party.t;
    endpoint : Pub_point.t;
  }

  type t = {
    fetch_policy : Relying_party.fetch_policy;
    valcache : bool;
    valcache_evict : bool;
    rtr_domains : int;
    primary_endpoint : Pub_point.t option;
    vantages : vantage_spec list;
    gossip_period : int option;
    gossip_overlay : Gossip.Overlay.spec;
    gossip_overlay_seed : int;
    persistence : Rpki_persist.Disk.t option;
    compact_every : int;
    save_full : bool;
    keep_history : bool;
  }

  let default =
    { fetch_policy = Relying_party.default_policy;
      valcache = true; valcache_evict = true; rtr_domains = 1;
      primary_endpoint = None; vantages = []; gossip_period = None;
      gossip_overlay = Gossip.Overlay.Full_mesh;
      gossip_overlay_seed = Gossip.Overlay.default_seed; persistence = None;
      compact_every = 0; save_full = false; keep_history = true }
end

(* Apply the knobs in dependency order: scalars first, then vantage
   registration (primary before extras, so the mesh order is stable), then
   gossip — which freezes the vantage list — and persistence last. *)
let configure t (c : Config.t) =
  t.fetch_policy <- c.Config.fetch_policy;
  (match (c.Config.valcache, t.valcache) with
  | true, None -> t.valcache <- Some (Valcache.create ())
  | false, Some _ -> t.valcache <- None
  | true, Some _ | false, None -> ());
  t.valcache_evict <- c.Config.valcache_evict;
  t.compact_every <- max 0 c.Config.compact_every;
  t.save_full <- c.Config.save_full;
  t.keep_history <- c.Config.keep_history;
  Option.iter
    (fun endpoint ->
      add_vantage t
        { Gossip.v_name = Relying_party.name t.rp; v_rp = t.rp; v_endpoint = endpoint;
          v_transport = t.transport })
    c.Config.primary_endpoint;
  List.iter
    (fun { Config.name; rp; endpoint } ->
      (* an extra vantage experiences the same network, but from its own
         AS: its transport prices every request off the previous tick's
         data plane as seen from [rp]'s seat *)
      let tr = Transport.create () in
      let asn = Relying_party.asn rp in
      Transport.set_latency_of tr (latency_oracle t ~src:(fun () -> asn));
      add_vantage t { Gossip.v_name = name; v_rp = rp; v_endpoint = endpoint; v_transport = tr })
    c.Config.vantages;
  Option.iter
    (fun period ->
      if Option.is_some t.gossip then invalid_arg "Loop.configure: gossip already enabled";
      t.gossip <-
        Some
          (Gossip.create ~overlay:c.Config.gossip_overlay
             ~overlay_seed:c.Config.gossip_overlay_seed t.vantages);
      t.gossip_period <- max 1 period)
    c.Config.gossip_period;
  Option.iter (fun disk -> t.disk <- Some disk) c.Config.persistence

(* --- persistence, crash and restart --- *)

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
let restart_vantage t ~name ~now:_ ~make =
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
  recovery

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

let regression_uri = function
  | Relying_party.Serial_regression { rg_uri; _ }
  | Relying_party.Content_equivocation { rg_uri; _ } -> rg_uri

let step t ~now =
  Universe.refresh_mirrors t.universe;
  Universe.refresh_rrdp t.universe;
  (* the shared plane's per-tick statistics baseline *)
  Option.iter Valcache.begin_tick t.valcache;
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
  let rtr_index = Rpki_rtr.Session.cache_index (rtr_cache t) in
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
  (match (gossip_report, t.gossip) with
  | None, _ | _, None -> ()
  | Some rep, Some g ->
    let key_of = Gossip.key_of g in
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
    (* each fetched point once (the trust anchor's is fetched twice), then
       the rest of the memory in one pass *)
    let fresh = Hashtbl.create 64 in
    let updated =
      List.filter_map
        (fun (uri, _) ->
          if Hashtbl.mem fresh uri || List.mem_assoc uri t.held_uris || List.mem uri regressed
          then None
          else begin
            Hashtbl.replace fresh uri ();
            Some (uri, Relying_party.point_vrps t.rp ~uri)
          end)
        r.Relying_party.fetches
    in
    t.point_good <-
      updated @ List.filter (fun (uri, _) -> not (Hashtbl.mem fresh uri)) t.point_good);
  (* durable state is snapshotted after gossip, so the peer heads verified
     this round are part of the baseline a restart gets back *)
  if Option.is_some t.disk then begin
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
  ignore (Rpki_rtr.Server.flush t.rtr);
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
