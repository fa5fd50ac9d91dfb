(* Scenario rigs for the closed loop: one spec, one rig, one build, and
   the timelines that run on it.

   The paper's Section 6 loop is rerun with different rigging by every
   experiment: split view, rollback and restart, generated worlds, the
   Stalloris stall, the corpus fault mix and the soak.  A spec names the
   rigging along its axes (world source x vantages x persistence x fault
   mix); [build] wires it the same way for every source, applying every
   loop knob through [Loop.configure].  Each attack timeline is staged here
   once, so the bench, the CLI and the tests agree on which tick captures,
   revokes, kills and restarts. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
open Rpki_ip
module World = Rpki_world.Synthesis
module Placement = Rpki_world.Placement
module Split_view = Rpki_attack.Split_view
module Rollback = Rpki_attack.Rollback
module Equivocator = Rpki_attack.Equivocator

type section6 = {
  mirrored : bool;
  rrdp : bool;
  validity : int option;
  refresh_interval : int option;
}

let canned = { mirrored = false; rrdp = false; validity = None; refresh_interval = None }

type source = Section6 of section6 | World of World.world

type fault_mix = {
  seed : int;
  rate : float;
  repair_after : int option;
}

type spec = {
  source : source;
  policy : Policy.t;
  grace : int;
  fetch_policy : Relying_party.fetch_policy option;
  valcache : bool;
  monitors : int;
  placement : Placement.policy;
  gossip_period : int;
  overlay : Gossip.Overlay.spec;
  overlay_seed : int;
  persist : bool;
  fault_mix : fault_mix option;
  valcache_evict : bool;
  compact_every : int;
  save_full : bool;
  keep_history : bool;
}

let default =
  { source = Section6 canned; policy = Policy.Drop_invalid; grace = 4; fetch_policy = None;
    valcache = true; monitors = 2; placement = Placement.By_degree; gossip_period = 1;
    overlay = Gossip.Overlay.Full_mesh; overlay_seed = Gossip.Overlay.default_seed;
    persist = false; fault_mix = None; valcache_evict = true; compact_every = 0;
    save_full = false; keep_history = true }

let section6 =
  { default with grace = 0; monitors = 0; fetch_policy = Some Relying_party.default_policy }

type rig = {
  sim : Loop.t;
  model : Model.t option;
  root : Authority.t;
  authorities : Authority.t list;
  victim_ca : Authority.t;
  victim_roa : string;
  monitor_names : string list;
  disk : Rpki_persist.Disk.t option;
  engine : Fault_mix.t option;
  respawn : log_epoch:int -> Relying_party.t;
}

(* What a source contributes to the loop: its network, the victim's seat
   and log endpoint, and one seat (name, AS, log endpoint) per monitor. *)
type site = {
  universe : Universe.t;
  topo : Topology.t;
  announcements : Propagation.announcement list;
  probes : Loop.probe list;
  rp_asn : int;
  rp_endpoint : Pub_point.t;
  seats : (string * int * Pub_point.t) list;
}

(* --- the Section 6 source --- *)

(* Monitors sit at the repository-hosting ASes attached to the Section 6
   topology, each log endpoint inside a prefix that AS announces, so gossip
   pulls have a route to travel.  Beyond the three named monitors, further
   ones are synthesized round-robin over the same ASes. *)
let canned_seat i =
  let name, addr, asn =
    match i with
    | 0 -> ("monitor-sprint", "63.161.200.9", Model.as_sprint)
    | 1 -> ("monitor-etb", "63.170.200.9", Model.as_etb)
    | 2 -> ("monitor-arin", "199.5.26.9", Model.as_arin_host)
    | _ -> (
      let j = ((i - 3) / 3) + 1 in
      let host = Printf.sprintf "%d.%d" (201 + (j / 200)) (10 + (j mod 200)) in
      match (i - 3) mod 3 with
      | 0 -> (Printf.sprintf "monitor-sprint-%d" j, "63.161." ^ host, Model.as_sprint)
      | 1 -> (Printf.sprintf "monitor-etb-%d" j, "63.170." ^ host, Model.as_etb)
      | _ ->
        (* ARIN's repo prefix is a single /24: capped well below its width *)
        if j > 240 then invalid_arg "Scenario.build: too many monitors";
        (Printf.sprintf "monitor-arin-%d" j, Printf.sprintf "199.5.26.%d" (10 + j),
         Model.as_arin_host))
  in
  ( name, asn,
    Pub_point.create ~uri:("rsync://" ^ name ^ ".example/log")
      ~addr:(V4.addr_of_string_exn addr) ~host_asn:asn )

(* Figure 5 (right) state: the model RPKI plus Sprint's covering ROA; the
   small topology with every repository host attached; Continental
   Broadband hosting its own repository inside 63.174.16.0/20 (AS 17054). *)
let canned_site (c : section6) ~monitors =
  let m = Model.build ?validity:c.validity ?refresh_interval:c.refresh_interval () in
  let _ = Model.add_fig5_right_roa m ~now:Rtime.epoch in
  let s = Topo_gen.small_scenario () in
  let topo = s.Topo_gen.small_topo in
  Topology.link topo ~provider:s.Topo_gen.t1a ~customer:Model.as_sprint;
  Topology.link topo ~provider:s.Topo_gen.mid1 ~customer:Model.as_etb;
  Topology.link topo ~provider:s.Topo_gen.t1b ~customer:Model.as_arin_host;
  let ann prefix origin = { Propagation.prefix = V4.p prefix; origin } in
  let announcements =
    [ ann "199.5.26.0/24" Model.as_arin_host;       (* ARIN repo; no ROA: unknown *)
      ann "63.161.0.0/16" Model.as_sprint;           (* Sprint repo; valid *)
      ann "63.170.0.0/16" Model.as_etb;              (* ETB repo; valid *)
      ann "63.174.16.0/20" Model.as_continental;     (* Continental repo; valid iff
                                                        the /20 ROA is fetched *)
      (* the victim's own log endpoint: benchmark space with no covering
         ROA, so the route is unknown and survives filtering *)
      ann "198.18.0.0/24" s.Topo_gen.source ]
  in
  let continental_uri = Pub_point.uri (Authority.pub m.Model.continental) in
  let sprint_point uri addr =
    Pub_point.create ~uri ~addr:(V4.addr_of_string_exn addr) ~host_asn:Model.as_sprint
  in
  (* draft-sidr-multiple-publication-points: a mirror inside Sprint's
     address space, whose route does not depend on Continental's objects *)
  if c.mirrored then
    Universe.add_mirror m.Model.universe ~of_uri:continental_uri
      (sprint_point "rsync://mirror.sprint.net/continental" "63.161.200.1");
  (* an RRDP delta service (RFC 8182), likewise hosted in Sprint's space *)
  if c.rrdp then
    Universe.add_rrdp m.Model.universe ~of_uri:continental_uri
      (sprint_point "https://rrdp.sprint.net/continental" "63.161.200.2");
  let site =
    { universe = m.Model.universe; topo; announcements;
      probes =
        [ { Loop.label = "continental-repo"; addr = Model.continental_repo_addr;
            expected_origin = Model.as_continental };
          { Loop.label = "sprint-repo"; addr = Model.sprint_repo_addr;
            expected_origin = Model.as_sprint } ];
      rp_asn = s.Topo_gen.source;
      rp_endpoint =
        Pub_point.create ~uri:"rsync://victim-rp.example/log"
          ~addr:(V4.addr_of_string_exn "198.18.0.7") ~host_asn:s.Topo_gen.source;
      seats = List.init monitors canned_seat }
  in
  (site, m)

(* --- a generated world --- *)

(* Monitors sit where the placement policy puts them; each announces the
   prefix its log endpoint lives in. *)
let world_site w ~monitors ~placement =
  let g = World.graph w in
  let rp_asn = World.rp_asn w in
  let monitor_asns = Placement.vantage_asns g placement ~count:monitors ~exclude:[ rp_asn ] in
  let endpoint name asn ~host =
    Pub_point.create ~uri:(Printf.sprintf "rsync://%s.world/log" name)
      ~addr:(World.host_addr w ~asn ~host) ~host_asn:asn
  in
  { universe = World.universe w; topo = As_graph.topology g;
    announcements =
      World.base_announcements w
      @ List.map (World.announcement_for w) monitor_asns
      |> List.sort_uniq compare;
    probes =
      [ { Loop.label = "victim-prefix";
          addr = World.host_addr w ~asn:(World.victim w) ~host:1;
          expected_origin = World.victim w } ];
    rp_asn;
    rp_endpoint = endpoint "victim-rp" rp_asn ~host:7;
    seats =
      List.map
        (fun asn ->
          let name = Printf.sprintf "monitor-as%d" asn in
          (name, asn, endpoint name asn ~host:9))
        monitor_asns }

(* --- build --- *)

let victim = "victim-rp"

let build spec =
  if spec.monitors < 0 then invalid_arg "Scenario.build: negative monitors";
  let site, model, root, authorities, victim_ca, victim_roa =
    match spec.source with
    | Section6 c ->
      let site, m = canned_site c ~monitors:spec.monitors in
      ( site, Some m, m.Model.arin,
        [ m.Model.arin; m.Model.sprint; m.Model.etb; m.Model.continental ],
        m.Model.continental, m.Model.roa_target20 )
    | World w ->
      ( world_site w ~monitors:spec.monitors ~placement:spec.placement, None,
        World.root w, World.root w :: List.map snd (World.cas w), World.victim_ca w,
        World.victim_roa w )
  in
  let tals = [ Relying_party.tal_of_authority root ] in
  let respawn ~log_epoch =
    Relying_party.create ~name:victim ~asn:site.rp_asn ~tals ~grace:spec.grace ~log_epoch ()
  in
  let sim =
    Loop.create ~universe:site.universe ~topo:site.topo ~policy:spec.policy
      ~rp:(respawn ~log_epoch:0) ~announcements:site.announcements ~probes:site.probes
  in
  (* the resilient shape, with the sync budget sized to the publication
     points times a generous per-point transport allowance (generated
     graphs have diameter ~5-6) *)
  let fetch_policy =
    match spec.fetch_policy with
    | Some p -> p
    | None ->
      let budget = Relying_party.resilient_policy.Relying_party.sync_budget in
      { Relying_party.resilient_policy with
        Relying_party.sync_budget = max budget (64 * List.length authorities) }
  in
  let disk = if spec.persist then Some (Rpki_persist.Disk.create ()) else None in
  Loop.configure sim
    { Loop.Config.default with
      fetch_policy; valcache = spec.valcache; valcache_evict = spec.valcache_evict;
      primary_endpoint = Some site.rp_endpoint;
      vantages =
        List.map
          (fun (name, asn, endpoint) ->
            { Loop.Config.name; rp = Relying_party.create ~name ~asn ~tals (); endpoint })
          site.seats;
      gossip_period = (if spec.monitors > 0 then Some spec.gossip_period else None);
      gossip_overlay = spec.overlay; gossip_overlay_seed = spec.overlay_seed;
      persistence = disk; compact_every = spec.compact_every; save_full = spec.save_full;
      keep_history = spec.keep_history };
  { sim; model; root; authorities; victim_ca; victim_roa; monitor_names = List.map (fun (name, _, _) -> name) site.seats; disk;
    engine =
      Option.map
        (fun f -> Fault_mix.create ~seed:f.seed ~rate:f.rate ?repair_after:f.repair_after ())
        spec.fault_mix;
    respawn }

let step rig ~now =
  let injections =
    match rig.engine with
    | None -> []
    | Some engine ->
      Fault_mix.tick engine ~targets:rig.authorities ~transports:[ Loop.transport rig.sim ]
        ~now
  in
  (injections, Loop.step rig.sim ~now)

(* --- drivers --- *)

(* The Side Effect 7 timeline: healthy ticks, a transient corruption of the
   victim's ROA, repair, then more ticks. *)
let run_section6 ?flush_cache_at spec =
  let rig = build spec in
  let tick now =
    if flush_cache_at = Some now then Relying_party.flush_cache rig.sim.Loop.rp;
    ignore (step rig ~now)
  in
  (* ticks 1-2: healthy *)
  List.iter tick [ 1; 2 ];
  (* tick 3: the RP receives a corrupted copy of the critical ROA *)
  let fault = Fault.corrupt_object (Authority.pub rig.victim_ca) ~filename:rig.victim_roa () in
  tick 3;
  (* tick 4: the repository is repaired... *)
  Option.iter Fault.repair fault;
  (* ticks 4-7: ...but can the RP see the repair? *)
  List.iter tick [ 4; 5; 6; 7 ];
  (rig, Loop.history rig.sim)

let section6_model rig ~caller =
  match rig.model with
  | Some m -> m
  | None -> invalid_arg (caller ^ ": the rig has no Section 6 model")

(* Shadows are planned from the Section 6 model under each monitor's own
   name and AS, so their tree heads verify under the monitor's real key. *)
let equivocators rig names =
  let model = section6_model rig ~caller:"Scenario.equivocators" in
  List.iter
    (fun name ->
      if not (List.mem name rig.monitor_names) then
        invalid_arg ("Scenario.equivocators: unknown monitor " ^ name))
    names;
  List.map
    (fun name ->
      let asn = Relying_party.asn (Loop.vantage rig.sim ~name).Gossip.v_rp in
      let eq =
        Equivocator.plan ~universe:model.Model.universe ~name
          ~shadow:(Model.relying_party ~name ~asn model)
          ~fork_to:(String.equal victim) ()
      in
      Equivocator.apply eq (Option.get (Loop.gossip_mesh rig.sim));
      eq)
    names

type split_view = {
  attack : Split_view.t;
  honest_adjacent : bool;
}

let run_split_view ?stealth ?(equivocators = []) ~attack_at ~ticks rig =
  let attack =
    Split_view.plan ~authority:rig.victim_ca ~target_filename:rig.victim_roa ?stealth ()
  in
  for now = 1 to ticks do
    if now = attack_at then begin
      Split_view.apply attack (Loop.transport rig.sim);
      (* every shadow forks with the victim, so the logs served to the
         victim keep mirroring what the victim sees *)
      List.iter
        (fun eq -> Split_view.apply attack (Equivocator.shadow_transport eq))
        equivocators
    end;
    ignore (step rig ~now)
  done;
  let honest_adjacent =
    match Loop.gossip_mesh rig.sim with
    | Some g when attack_at >= 1 ->
      let traitors = List.map Equivocator.name equivocators in
      let honest x = not (String.equal x victim || List.mem x traitors) in
      let honest_edge (a, b) =
        (String.equal a victim && honest b) || (String.equal b victim && honest a)
      in
      List.exists
        (fun round -> List.exists honest_edge (Gossip.round_pulls g ~round))
        (List.init (max 0 (ticks - attack_at + 1)) (fun i -> attack_at + i))
    | _ -> false
  in
  { attack; honest_adjacent }

type rollback = {
  plan : Rollback.t;
  recovery : Relying_party.recovery;
}

(* Capture the victim CA's honest state after t2, revoke (63.174.25.0/24,
   AS 17054) at t3 — chosen so the repository's own route is untouched —
   and kill the victim right after its t5 snapshot, replaying the capture
   to it until it restarts. *)
let run_rollback ?disk_fault ~restart_at ~ticks rig =
  let model = section6_model rig ~caller:"Scenario.run_rollback" in
  if restart_at <= 5 then
    invalid_arg "Scenario.run_rollback: the victim restarts after the t5 kill";
  if ticks < restart_at then invalid_arg "Scenario.run_rollback: ticks end before the restart";
  if disk_fault <> None && rig.disk = None then
    invalid_arg "Scenario.run_rollback: a disk fault needs a rig that persists";
  let plan = Rollback.plan ~authority:rig.victim_ca in
  let recovery = ref None in
  for now = 1 to ticks do
    if now = 3 then Authority.revoke_roa rig.victim_ca ~filename:model.Model.roa_cb_25 ~now;
    (* arm the one-shot disk fault so it fires on the victim's last
       pre-crash snapshot write (the primary saves first each tick) *)
    if now = 5 then
      Option.iter (fun disk -> Option.iter (Rpki_persist.Disk.inject disk) disk_fault) rig.disk;
    if now = restart_at then
      recovery := Some (Loop.restart_vantage rig.sim ~name:victim ~now ~make:rig.respawn);
    ignore (step rig ~now);
    if now = 2 then Rollback.capture plan ~now;
    if now = 5 then begin
      Loop.kill_vantage rig.sim ~name:victim;
      Rollback.apply plan (Loop.transport rig.sim)
    end
  done;
  { plan; recovery = Option.get !recovery }

type soak_config = {
  sk_ticks : int;
  sk_churn_every : int;
  sk_sample_every : int;
  sk_spec : spec;
}

let default_soak =
  { sk_ticks = 2000; sk_churn_every = 0; sk_sample_every = 100;
    sk_spec =
      { default with monitors = 1; gossip_period = 16; persist = true; compact_every = 64;
                     keep_history = false } }

type soak_sample = {
  so_tick : int;
  so_live_words : int;
  so_snapshot_bytes : int;
  so_chain_bytes : int;
  so_segments : int;
  so_save_bytes : int;
  so_log_size : int;
  so_residency : Valcache.residency option;
}

type soak_report = {
  so_config : soak_config;
  so_samples : soak_sample list;
  so_saves : int;
  so_total_save_bytes : int;
  so_bytes_per_save : float;
}

let run_soak ?(config = default_soak) () =
  let c = config in
  if c.sk_ticks < 1 then invalid_arg "Scenario.run_soak: ticks must be positive";
  let rig = build c.sk_spec in
  let disk =
    match rig.disk with
    | Some disk -> disk
    | None -> invalid_arg "Scenario.run_soak: the spec must persist"
  in
  let t = rig.sim in
  let primary_store = Loop.vantage_store t ~name:(Relying_party.name t.Loop.rp) in
  let vantage_count = 1 + List.length rig.monitor_names in
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
        so_log_size = Rpki_transparency.Log.size (Relying_party.transparency_log t.Loop.rp);
        so_residency = Option.map Valcache.residency t.Loop.valcache }
      :: !samples;
    last_written := written
  in
  for now = 1 to c.sk_ticks do
    if c.sk_churn_every > 0 && now mod c.sk_churn_every = 0 then
      Authority.maintain rig.root ~now;
    ignore (step rig ~now);
    if now mod c.sk_sample_every = 0 || now = c.sk_ticks then sample ~tick:now
  done;
  let saves = c.sk_ticks * vantage_count in
  let total = Rpki_persist.Disk.bytes_written disk in
  { so_config = c; so_samples = List.rev !samples; so_saves = saves;
    so_total_save_bytes = total;
    so_bytes_per_save = float_of_int total /. float_of_int (max 1 saves) }
