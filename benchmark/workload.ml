(* The benchmark's workloads and the closed loop that drives them.

   One workload is one simulator stepped tick after tick in a closed loop:
   the next tick starts only when the previous one has finished.  The timed
   operation of a tick is the fault-mix step (when enabled), a scheduled
   restart (when due) and then Loop.step.  What the workload does to the
   world between ticks (ROA churn, CRL/manifest refresh, the split-view
   attack) is the workload's own move and stays outside the timer.

   Rigs are built only from Synthesis, Placement.vantage_asns,
   Loop.create + Loop.configure, Rtr.Server.attach and
   Relying_party.create, so refactors of the canned scenarios and of the
   deprecated Loop setters do not touch the benchmark. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
module Loop = Rpki_sim.Loop
module Server = Rpki_rtr.Server
module Session = Rpki_rtr.Session
module World = Rpki_world.Synthesis
module Placement = Rpki_world.Placement
module Split_view = Rpki_attack.Split_view
module Disk = Rpki_persist.Disk
module Rng = Rpki_util.Rng
module H = Harness

type t = {
  name : string;
  ases : int;
  monitors : int;                    (* vantages besides the primary *)
  overlay : Gossip.Overlay.spec;
  sessions : int;                    (* RTR router sessions attached *)
  ticks : int;                       (* the episode: a part runs ticks
                                        1..ticks, the first one cold *)
  attack_at : int option;            (* stealth split view on the primary *)
  fault_rate : float;                (* corpus fault mix, per authority-tick *)
  compact_every : int option;        (* Some n: persistence on, compaction
                                        every n ticks *)
  refresh_fraction : float;          (* share of CAs re-signing their CRL and
                                        manifest each tick *)
  roa_churn : int;                   (* ROAs expired (and renewed the tick
                                        after) each tick *)
  restart_every : int;               (* kill and restore the primary; 0 = never *)
}

let grace = 4

(* Why each workload exists is in README.md and BENCHMARK.json. *)
let all =
  [ (* every layer busy *)
    { name = "reference"; ases = 1000; monitors = 16; overlay = Gossip.Overlay.K_regular 4;
      sessions = 256; ticks = 35; attack_at = Some 5; fault_rate = 0.05;
      compact_every = Some 32; refresh_fraction = 0.; roa_churn = 0; restart_every = 0 };
    (* sync and gossip; RTR and persistence idle *)
    { name = "vantage-fanout"; ases = 600; monitors = 32;
      overlay = Gossip.Overlay.K_regular 4; sessions = 16; ticks = 35; attack_at = Some 5;
      fault_rate = 0.; compact_every = None; refresh_fraction = 0.25; roa_churn = 0;
      restart_every = 0 };
    (* world size: synthesis and the data plane; the no-change control *)
    { name = "world-large"; ases = 2000; monitors = 2; overlay = Gossip.Overlay.Full_mesh;
      sessions = 16; ticks = 35; attack_at = Some 5; fault_rate = 0.; compact_every = None;
      refresh_fraction = 0.; roa_churn = 0; restart_every = 0 };
    (* the write side: RTR fan-out, persistence writes and restores *)
    { name = "roa-churn"; ases = 600; monitors = 2; overlay = Gossip.Overlay.Full_mesh;
      sessions = 512; ticks = 35; attack_at = None; fault_rate = 0.; compact_every = Some 32;
      refresh_fraction = 0.; roa_churn = 8; restart_every = 30 } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The twin-identity check's size: small enough for dune runtest, large
   enough that every scheduled event (attack and detection, compaction,
   restart) still happens. *)
let shrink w =
  { w with
    ases = 200;
    monitors = min 4 w.monitors;
    sessions = min 16 w.sessions;
    ticks = 12;
    compact_every = Option.map (fun _ -> 4) w.compact_every;
    restart_every = (if w.restart_every > 0 then 6 else 0) }

(* A traced run keeps ticking past the episode while it has time left,
   but never so long that the synthesized CRLs and manifests (re-signed
   every 14 simulated days = 336 ticks) lapse and change what the workload
   does. *)
let max_ticks = 300

(* Faults start after the split-view detection window closes, so whether
   the fork is caught in time is a property of gossip, not of which
   authority the fault mix happened to hit. *)
let faults_from w = match w.attack_at with Some a -> a + grace + 1 | None -> 1

(* --- rigs ---------------------------------------------------------------- *)

type rig = {
  w : t;
  sim : Loop.t;
  world : World.world;
  sessions : Server.session list;
  disk : Disk.t option;
  engine : Fault_mix.t option;
  targets : Authority.t list;        (* what the fault mix rolls *)
  cas : Authority.t array;           (* refresh candidates *)
  roas : (Authority.t * string) array;  (* churn candidates *)
  rng : Rng.t;                       (* the workload's choices *)
  respawn : log_epoch:int -> Relying_party.t;
  mutable expired : (Authority.t * string) list;
  mutable first_fork : int option;
  synth_s : float;
  rig_s : float;
}

let primary_name = "victim-rp"

(* The scenario is fixed: the AS graph and the fault-mix schedule come
   from this seed.  The run's seed drives the choices that are alike in
   cost (the overlay shuffle, which ROAs churn, which CAs re-sign).
   Seeding the graph made each seed a differently sized system (on
   reference, seeds 1-5 moved the median tick from 72 to 104 ms), and a
   seeded fault mix gives each run a different count of rare, costly
   trust-anchor faults. *)
let world_seed = 11

let build w ~seed =
  let t0 = H.now_ns () in
  let spec =
    { World.default_spec with
      World.graph =
        { As_graph.default_spec with As_graph.ases = w.ases; seed = world_seed } }
  in
  let world = World.build spec in
  let synth_s = H.elapsed_s t0 in
  let t1 = H.now_ns () in
  let g = World.graph world in
  let rp_asn = World.rp_asn world in
  let tals = [ Relying_party.tal_of_authority (World.root world) ] in
  (* grace only where an attack needs a window to beat: it would hide
     ROA churn that reverts within the grace period *)
  let grace = Option.map (fun _ -> grace) w.attack_at in
  let rp = Relying_party.create ~name:primary_name ~asn:rp_asn ~tals ?grace () in
  let monitor_asns =
    Placement.vantage_asns g Placement.By_degree ~count:w.monitors ~exclude:[ rp_asn ]
  in
  let announcements =
    World.base_announcements world @ List.map (World.announcement_for world) monitor_asns
    |> List.sort_uniq compare
  in
  let probes =
    [ { Loop.label = "victim-prefix";
        addr = World.host_addr world ~asn:(World.victim world) ~host:1;
        expected_origin = World.victim world } ]
  in
  let sim =
    Loop.create ~universe:(World.universe world) ~topo:(As_graph.topology g)
      ~policy:Policy.Drop_invalid ~rp ~announcements ~probes
  in
  (* the resilient fetch policy with the sync budget scaled to the world's
     publication-point count, as the world scenarios use *)
  let points = List.length (World.cas world) + 1 in
  let fetch_policy =
    { Relying_party.resilient_policy with
      Relying_party.sync_budget =
        max Relying_party.resilient_policy.Relying_party.sync_budget (64 * points) }
  in
  let endpoint name asn ~host =
    Pub_point.create ~uri:(Printf.sprintf "rsync://%s.world/log" name)
      ~addr:(World.host_addr world ~asn ~host) ~host_asn:asn
  in
  let disk = Option.map (fun _ -> Disk.create ()) w.compact_every in
  Loop.configure sim
    { Loop.Config.default with
      Loop.Config.fetch_policy;
      rtr_domains = 1;
      primary_endpoint = Some (endpoint primary_name rp_asn ~host:7);
      vantages =
        List.map
          (fun asn ->
            let name = Printf.sprintf "monitor-as%d" asn in
            { Loop.Config.name; rp = Relying_party.create ~name ~asn ~tals ();
              endpoint = endpoint name asn ~host:9 })
          monitor_asns;
      gossip_period = (if w.monitors > 0 then Some 1 else None);
      gossip_overlay = w.overlay;
      gossip_overlay_seed = seed;
      persistence = disk;
      compact_every = Option.value w.compact_every ~default:0;
      keep_history = false };
  let server = Loop.rtr_server sim in
  let sessions = List.init w.sessions (fun _ -> Server.attach server) in
  let cas = List.map snd (World.cas world) in
  let roas =
    Authority.all_roas (World.root world)
    |> List.map (fun (a, f, _) -> (a, f))
    |> Array.of_list
  in
  { w; sim; world; sessions; disk;
    engine =
      (if w.fault_rate > 0. then
         Some (Fault_mix.create ~seed:world_seed ~rate:w.fault_rate ())
       else None);
    targets = World.root world :: cas;
    cas = Array.of_list cas;
    roas;
    rng = Rng.create (seed lxor 0xd21e);
    respawn =
      (fun ~log_epoch ->
        Relying_party.create ~name:primary_name ~asn:rp_asn ~tals ?grace ~log_epoch ());
    expired = []; first_fork = None; synth_s; rig_s = H.elapsed_s t1 }

(* [k] distinct elements of [a], chosen by the workload's generator. *)
let pick rng a k =
  let idx = Rng.shuffle rng (List.init (Array.length a) Fun.id) in
  List.filteri (fun i _ -> i < k) idx |> List.map (fun i -> a.(i))

(* The workload's move before tick [now]; untimed. *)
let drive r ~now =
  (match r.w.attack_at with
  | Some a when a = now ->
    Split_view.apply
      (Split_view.plan ~authority:(World.victim_ca r.world)
         ~target_filename:(World.victim_roa r.world) ())
      (Loop.transport r.sim)
  | _ -> ());
  if r.w.roa_churn > 0 then begin
    List.iter (fun (a, filename) -> ignore (Authority.renew_roa a ~filename ~now)) r.expired;
    r.expired <- pick r.rng r.roas r.w.roa_churn;
    List.iter (fun (a, filename) -> Authority.expire_roa a ~filename ~now) r.expired
  end;
  if r.w.refresh_fraction > 0. then begin
    let k =
      int_of_float (Float.round (r.w.refresh_fraction *. float_of_int (Array.length r.cas)))
    in
    List.iter (fun ca -> Authority.refresh ca ~now) (pick r.rng r.cas k)
  end

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* The timed operation.  [span] wraps the fault-mix and restart phases;
   it is the identity in the untimed-by-layer run. *)
let operate r ~now ~span ~step =
  span "faultmix.tick" (fun () ->
      match r.engine with
      | Some e when now >= faults_from r.w ->
        ignore
          (Fault_mix.tick e ~targets:r.targets ~transports:[ Loop.transport r.sim ] ~now)
      | _ -> ());
  span "persist.restore" (fun () ->
      if r.w.restart_every > 0 && now mod r.w.restart_every = 0 then begin
        Loop.kill_vantage r.sim ~name:primary_name;
        match Loop.restart_vantage r.sim ~name:primary_name ~now ~make:r.respawn with
        | Relying_party.Recovered _ -> ()
        | Relying_party.Recovered_fresh why ->
          failf "t%d: restart did not restore: %s" now
            (Relying_party.fresh_reason_to_string why)
      end);
  step r.sim ~now

let has_fork (rec_ : Loop.tick_record) =
  match rec_.Loop.gossip_report with
  | Some rep -> List.exists Gossip.is_fork rep.Gossip.r_alarms
  | None -> false

(* The per-tick correctness checks; raise Check_failed. *)
let check r (rec_ : Loop.tick_record) ~now =
  let server = Loop.rtr_server r.sim in
  if not (Server.all_synced server) then failf "t%d: an RTR session is not synced" now;
  let serial = Session.cache_serial (Server.cache server) in
  if rec_.Loop.rtr_serial <> serial then
    failf "t%d: record serial %d, cache serial %d" now rec_.Loop.rtr_serial serial;
  match r.w.attack_at with
  | None -> ()
  | Some a ->
    if has_fork rec_ && r.first_fork = None then begin
      if now < a then failf "t%d: fork alarm before the attack at t%d" now a;
      r.first_fork <- Some now
    end;
    if now = a + grace && r.first_fork = None then
      failf "t%d: split view from t%d not detected within grace %d" now a grace

(* Every session holds exactly the cache's VRP set. *)
let check_sessions r =
  let cache = Server.cache (Loop.rtr_server r.sim) in
  let vrps = Session.cache_vrps cache in
  List.iteri
    (fun i s ->
      if Server.session_vrps s <> vrps then failf "session %d VRPs differ from the cache" i)
    r.sessions

(* --- behaviour digest ---------------------------------------------------- *)

let alarm_kind = function
  | Gossip.Fork _ -> "fork"
  | Gossip.Inconsistent_heads _ -> "inconsistent"
  | Gossip.Bad_head_signature _ -> "bad-sig"
  | Gossip.Bad_inclusion _ -> "bad-inclusion"
  | Gossip.Rollback _ -> "rollback"
  | Gossip.Log_reset _ -> "log-reset"

(* The behaviour projection of a tick: what routers, probes and operators
   see.  Work counters (points revalidated, signatures checked, gossip
   economics) stay out, so a caching win leaves the digest unchanged. *)
let project (r : Loop.tick_record) =
  let vrps l = String.concat "," (List.map Vrp.to_string l) in
  Printf.sprintf "t%d vrps=%d +[%s] -[%s] serial=%d probes=%s fail=[%s] issues=%d \
                  holds=%d unsafe=%d alarms=[%s]\n"
    r.Loop.time r.Loop.vrp_count (vrps r.Loop.vrp_diff.Vrp.added)
    (vrps r.Loop.vrp_diff.Vrp.removed) r.Loop.rtr_serial
    (String.concat ","
       (List.map (fun (l, ok) -> l ^ if ok then ":up" else ":down") r.Loop.probe_results))
    (String.concat "," r.Loop.fetch_failures)
    r.Loop.issue_count r.Loop.rtr_holds r.Loop.unsafe_count
    (match r.Loop.gossip_report with
    | None -> ""
    | Some rep -> String.concat "," (List.map alarm_kind rep.Gossip.r_alarms))

(* --- runs ---------------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  errors : string list;    (* the first few failure messages *)
  digest : string;         (* over ticks 1..w.ticks *)
  samples : int;           (* warm ticks measured *)
  metrics : metric list;   (* the metrics the result line carries *)
  notes : metric list;     (* printed only *)
}

type tally = {
  mutable attempted_ : int;
  mutable failed_ : int;
  mutable errors_ : string list;
  digest_buf : Buffer.t;
}

let new_tally () =
  { attempted_ = 0; failed_ = 0; errors_ = []; digest_buf = Buffer.create 4096 }

let fail tally msg =
  tally.failed_ <- tally.failed_ + 1;
  if List.length tally.errors_ < 5 then tally.errors_ <- tally.errors_ @ [ msg ]

(* One attempted tick: [body] runs it and returns its record; anything it
   raises is a failed tick. *)
let attempt tally body =
  tally.attempted_ <- tally.attempted_ + 1;
  match body () with
  | rec_ -> Some rec_
  | exception Check_failed msg ->
    fail tally msg;
    None
  | exception e ->
    fail tally (Printexc.to_string e);
    None

let no_span _ f = f ()

let metric m_name value unit_ = { m_name; value; unit_ }

let digest_of tally = Digest.to_hex (Digest.string (Buffer.contents tally.digest_buf))

let finish tally ~digest ~samples ?(notes = []) metrics =
  { attempted = tally.attempted_; failed = tally.failed_; errors = tally.errors_; digest;
    samples; metrics; notes }

let mb words = float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* One part of an end-to-end run: set up (world, rig, sessions and the
   cold first tick), then the episode's warm ticks.  Each part runs in a
   process of its own: run-to-run differences here are mostly differences
   between processes (within one, the median tick of each quarter agrees
   to a few percent), so a run takes the median over at least three. *)
type part = {
  setup_s : float;
  warm_ms : float list;    (* warm tick times, oldest first *)
  busy_ms : float;         (* warm ticks plus the workload's moves *)
  live_mb : float;         (* live major heap at the episode's end, rig
                              alive, after a full collection *)
  top_mb : float;          (* the major heap's high-water mark *)
  p_digest : string;
  p_attempted : int;
  p_failed : int;
  p_errors : string list;
}

let run_part w ~seed =
  let tally = new_tally () in
  let warm_ms = ref [] and busy_ms = ref 0. in
  let t0 = H.now_ns () in
  let r = build w ~seed in
  let tick now =
    let t0 = H.now_ns () in
    drive r ~now;
    let t1 = H.now_ns () in
    match
      attempt tally (fun () ->
          let rec_ = operate r ~now ~span:no_span ~step:Loop.step in
          let ms = H.elapsed_ms t1 in
          if now > 1 then begin
            warm_ms := ms :: !warm_ms;
            busy_ms := !busy_ms +. H.elapsed_ms t0
          end;
          check r rec_ ~now;
          rec_)
    with
    | Some rec_ -> Buffer.add_string tally.digest_buf (project rec_)
    | None -> ()
  in
  tick 1;
  let setup_s = H.elapsed_s t0 in
  for now = 2 to w.ticks do
    tick now
  done;
  (try check_sessions r with Check_failed msg -> fail tally msg);
  let top_mb = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  let live_mb = mb (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity r);
  { setup_s; warm_ms = List.rev !warm_ms; busy_ms = !busy_ms; live_mb; top_mb;
    p_digest = digest_of tally;
    p_attempted = tally.attempted_; p_failed = tally.failed_; p_errors = tally.errors_ }

let part_to_json p =
  H.Object
    [ ("setup_s", H.Float p.setup_s);
      ("warm_ms", H.List (List.map (fun ms -> H.Float ms) p.warm_ms));
      ("busy_ms", H.Float p.busy_ms); ("live_mb", H.Float p.live_mb);
      ("top_mb", H.Float p.top_mb);
      ("digest", H.String p.p_digest); ("attempted", H.Int p.p_attempted);
      ("failed", H.Int p.p_failed);
      ("errors", H.List (List.map (fun e -> H.String e) p.p_errors)) ]

let part_of_json v =
  let field k = match H.member k v with Some x -> x | None -> raise Not_found in
  let number = function H.Float f -> f | H.Int i -> float_of_int i | _ -> raise Not_found in
  let num k = number (field k) in
  let int k = match field k with H.Int i -> i | _ -> raise Not_found in
  let list k = match field k with H.List l -> l | _ -> raise Not_found in
  let str = function H.String s -> s | _ -> raise Not_found in
  try
    Some
      { setup_s = num "setup_s";
        warm_ms = List.map number (list "warm_ms");
        busy_ms = num "busy_ms"; live_mb = num "live_mb"; top_mb = num "top_mb";
        p_digest = str (field "digest");
        p_attempted = int "attempted"; p_failed = int "failed";
        p_errors = List.map str (list "errors") }
  with Not_found -> None

(* The end-to-end result over a run's parts: medians across parts.  The
   tail percentile over the pooled warm ticks, the throughput and the
   heap's high-water mark are printed only: across runs they spread
   further than any bound worth keeping (see README.md). *)
let aggregate parts =
  let tally = new_tally () in
  List.iter
    (fun p ->
      tally.attempted_ <- tally.attempted_ + p.p_attempted;
      tally.failed_ <- tally.failed_ + p.p_failed;
      tally.errors_ <- tally.errors_ @ p.p_errors)
    parts;
  (* every part replays the same deterministic episode *)
  let digests = List.sort_uniq String.compare (List.map (fun p -> p.p_digest) parts) in
  if List.length digests <> 1 then fail tally "parts disagree on the trace digest";
  let pooled = List.concat_map (fun p -> p.warm_ms) parts in
  let n = List.length pooled in
  let tail =
    match H.highest_tail_percentile n with
    | Some p when p >= 90. ->
      [ metric (Printf.sprintf "tick_ms_p%g" p) (H.percentile p pooled) "ms" ]
    | _ ->
      fail tally (Printf.sprintf "%d warm ticks are too few for a p90" n);
      []
  in
  let over f = H.median (List.map f parts) in
  finish tally ~digest:(String.concat "," digests) ~samples:n
    ~notes:
      (tail
      @ [ metric "ticks_per_s"
            (over (fun p -> float_of_int (List.length p.warm_ms) /. (p.busy_ms /. 1e3)))
            "1/s";
          metric "top_heap_mb" (over (fun p -> p.top_mb)) "MB" ])
    [ metric "setup_s" (over (fun p -> p.setup_s)) "s";
      metric "tick_ms_p50" (over (fun p -> H.median p.warm_ms)) "ms";
      metric "live_heap_mb" (over (fun p -> p.live_mb)) "MB" ]

(* The traced run: twin rigs from the same seed, one stepped by Loop.step
   and one by Traced_tick.step, compared record for record.  Per-layer
   numbers are means per warm tick over the episode (ticks 2..w.ticks), so
   the work counters repeat exactly; ticks past the episode only add
   samples to trace.overhead_pct. *)
let run_traced w ~seed ~seconds =
  let tally = new_tally () in
  let a = build w ~seed in
  let b = build w ~seed in
  let spans = ref [] in
  let span name f = ignore (Traced_tick.timed spans name f) in
  let traced_step sim ~now =
    let rec_, s = Traced_tick.step sim ~now in
    spans := List.rev_append s !spans;
    rec_
  in
  let server = Loop.rtr_server b.sim in
  let injected () = match b.engine with Some e -> Fault_mix.injected e | None -> 0 in
  let disk_totals () =
    match b.disk with
    | Some d -> (Disk.bytes_written d, Disk.writes d)
    | None -> (0, 0)
  in
  let snapshot () = (Server.stats server, disk_totals (), injected ()) in
  let base = ref None and window = ref [] in
  let plain_ms = ref [] and traced_ms = ref [] and cold_sync_ms = ref 0. in
  let tick now =
    drive a ~now;
    drive b ~now;
    spans := [];
    match
      attempt tally (fun () ->
          let t0 = H.now_ns () in
          let ra = operate a ~now ~span:no_span ~step:Loop.step in
          let ms_a = H.elapsed_ms t0 in
          let t1 = H.now_ns () in
          let rb = operate b ~now ~span ~step:traced_step in
          let ms_b = H.elapsed_ms t1 in
          if ra <> rb then failf "t%d: traced tick record differs from Loop.step" now;
          check a ra ~now;
          check b rb ~now;
          (ra, ms_a, ms_b))
    with
    | None -> ()
    | Some (rec_, ms_a, ms_b) ->
      let s = List.rev !spans in
      if now = 1 then
        cold_sync_ms :=
          List.fold_left
            (fun acc (sp : Traced_tick.span) ->
              if String.starts_with ~prefix:"sync." sp.Traced_tick.name then
                acc +. Traced_tick.span_ms sp
              else acc)
            0. s
      else begin
        plain_ms := ms_a :: !plain_ms;
        traced_ms := ms_b :: !traced_ms
      end;
      if now <= w.ticks then Buffer.add_string tally.digest_buf (project rec_);
      if now = 1 then base := Some (snapshot ());
      if now >= 2 && now <= w.ticks then window := (rec_, ms_b, s) :: !window
  in
  tick 1;
  let end_ = ref None in
  let warm0 = H.now_ns () in
  let now = ref 1 in
  while !now < max_ticks && (!now < w.ticks || H.elapsed_s warm0 < seconds) do
    incr now;
    tick !now;
    if !now = w.ticks then end_ := Some (snapshot ())
  done;
  (try check_sessions a; check_sessions b with Check_failed msg -> fail tally msg);
  let window = List.rev !window in
  let n = float_of_int (max 1 (List.length window)) in
  let per_tick f = List.fold_left (fun acc x -> acc +. f x) 0. window /. n in
  let span_sum pred s =
    List.fold_left
      (fun acc (sp : Traced_tick.span) ->
        if pred sp.Traced_tick.name then acc +. Traced_tick.span_ms sp else acc)
      0. s
  in
  let layer name = per_tick (fun (_, _, s) -> span_sum (String.equal name) s) in
  let count f = per_tick (fun (r, _, _) -> float_of_int (f r)) in
  let gossip f =
    count (fun r -> match r.Loop.gossip_report with Some g -> f g | None -> 0)
  in
  let delta f =
    match (!base, !end_) with
    | Some b0, Some b1 -> float_of_int (f b1 - f b0) /. n
    | _ -> 0.
  in
  let rtr f = delta (fun (s, _, _) -> f s) in
  let checks = count (fun r -> r.Loop.sig_checks)
  and saved = count (fun r -> r.Loop.sig_saved) in
  let overhead =
    match (!plain_ms, !traced_ms) with
    | [], _ | _, [] -> 0.
    | p, t -> (H.median t -. H.median p) /. H.median p *. 100.
  in
  finish tally ~digest:(digest_of tally) ~samples:(List.length window)
    [ metric "world.synth_s" ((a.synth_s +. b.synth_s) /. 2.) "s";
      metric "sim.rig_s" ((a.rig_s +. b.rig_s) /. 2.) "s";
      metric "sim.glue_ms"
        (per_tick (fun (_, ms, s) -> ms -. span_sum (fun _ -> true) s))
        "ms";
      metric "sync.cold_ms" !cold_sync_ms "ms";
      metric "sync.primary_ms" (layer Traced_tick.sync_primary) "ms";
      metric "sync.vantages_ms" (layer Traced_tick.sync_vantage) "ms";
      metric "sync.vantage_max_ms"
        (per_tick (fun (_, _, s) ->
             List.fold_left
               (fun acc (sp : Traced_tick.span) ->
                 if String.equal sp.Traced_tick.name Traced_tick.sync_vantage then
                   Float.max acc (Traced_tick.span_ms sp)
                 else acc)
               0. s))
        "ms";
      metric "sync.points_revalidated" (count (fun r -> r.Loop.points_revalidated)) "count";
      metric "sync.points_reused" (count (fun r -> r.Loop.points_reused)) "count";
      metric "sync.sig_checks" checks "count";
      metric "sync.sig_saved" saved "count";
      metric "sync.valcache_hit"
        (if checks +. saved > 0. then saved /. (checks +. saved) else 0.) "ratio";
      metric "valcache.tick_ms" (layer Traced_tick.valcache) "ms";
      metric "ov.build_ms" (layer Traced_tick.ov_build) "ms";
      metric "bgp.data_plane_ms" (layer Traced_tick.bgp_data_plane) "ms";
      metric "bgp.probe_ms" (layer Traced_tick.bgp_probe) "ms";
      metric "gossip.round_ms" (layer Traced_tick.gossip_round) "ms";
      metric "gossip.verify_fork_ms" (layer Traced_tick.gossip_verify_fork) "ms";
      metric "gossip.pulls" (gossip (fun g -> g.Gossip.r_pulls)) "count";
      metric "gossip.verifies" (gossip (fun g -> g.Gossip.r_verifies)) "count";
      metric "gossip.verifies_saved" (gossip (fun g -> g.Gossip.r_verifies_saved)) "count";
      metric "gossip.proofs_built" (gossip (fun g -> g.Gossip.r_proofs_built)) "count";
      metric "gossip.proofs_reused" (gossip (fun g -> g.Gossip.r_proofs_reused)) "count";
      metric "gossip.proof_bytes" (gossip (fun g -> g.Gossip.r_proof_bytes)) "B";
      metric "rtr.publish_ms" (layer Traced_tick.rtr_publish) "ms";
      metric "rtr.flush_ms" (layer Traced_tick.rtr_flush) "ms";
      metric "rtr.serial_bumps" (rtr (fun s -> s.Server.serial_bumps)) "count";
      metric "rtr.bytes_encoded" (rtr (fun s -> s.Server.bytes_encoded)) "B";
      metric "rtr.bytes_sent" (rtr (fun s -> s.Server.bytes_sent)) "B";
      metric "rtr.replays" (rtr (fun s -> s.Server.replays)) "count";
      metric "rtr.resets" (rtr (fun s -> s.Server.resets)) "count";
      metric "persist.save_ms" (layer Traced_tick.persist_save) "ms";
      metric "persist.compact_ms" (layer Traced_tick.persist_compact) "ms";
      metric "persist.bytes_written" (delta (fun (_, (bytes, _), _) -> bytes)) "B";
      metric "persist.writes" (delta (fun (_, (_, writes), _) -> writes)) "count";
      metric "persist.restore_ms" (layer "persist.restore") "ms";
      metric "faultmix.tick_ms" (layer "faultmix.tick") "ms";
      metric "faultmix.injected" (delta (fun (_, _, i) -> i)) "count";
      metric "trace.overhead_pct" overhead "%" ]
