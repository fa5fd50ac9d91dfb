(* End-to-end split-view detection (the ISSUE's acceptance experiment).

   A split-view authority forks the victim relying party's view of
   Continental's repository, suppressing the ROA that keeps the victim
   route (63.174.16.0/20, AS 17054) valid.  With two or more gossiping
   vantages the fork is caught — with verifiable cryptographic evidence —
   strictly before the graced VRP expires and the route goes invalid.
   A single non-gossiping vantage never notices: the stealthy fork is
   locally clean.

   Plus the false-positive guard: an honest universe observed through
   faulty-but-consistent transports (slow and stalling points) never
   raises a fork or consistency alarm over a full run. *)

open Rpki_repo
open Rpki_sim
module Split_view = Rpki_attack.Split_view

let probe_up r label =
  match List.assoc_opt label r.Loop.probe_results with
  | Some up -> up
  | None -> Alcotest.fail ("no probe " ^ label)

let run_with_attack ~monitors ~grace ~gossip_period ~ticks =
  let sv = Scenario.build { Scenario.default with monitors; grace; gossip_period } in
  let run = Scenario.run_split_view ~attack_at:3 ~ticks sv in
  (sv, sv.Scenario.sim, run.Scenario.attack)

(* With >= 2 gossiping vantages: fork alarm, verifiable, strictly inside the
   grace window — and the verified evidence now freezes the affected
   prefixes on the RTR cache, so the victim route *survives* the fork
   instead of dying when grace expires (the evidence-triggered hold). *)
let test_detected_before_invalid () =
  let grace = 4 in
  let attack_at = 3 in
  let sv, t, _ = run_with_attack ~monitors:2 ~grace ~gossip_period:1 ~ticks:10 in
  let fork_tick =
    match Loop.first_fork_tick t with
    | Some tk -> tk
    | None -> Alcotest.fail "no fork alarm raised"
  in
  Alcotest.(check bool)
    (Printf.sprintf "fork detected (t%d) before grace would expire (t%d)" fork_tick
       (attack_at + grace))
    true
    (fork_tick < attack_at + grace);
  (* detection no longer stops at the alert layer: the hold pins the
     suppressed VRP at last-good, so the route outlives the grace window *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "victim route still up at t%d (held)" r.Loop.time)
        true (probe_up r "continental-repo");
      if r.Loop.time > fork_tick then
        Alcotest.(check bool)
          (Printf.sprintf "hold active at t%d" r.Loop.time)
          true (r.Loop.rtr_holds > 0))
    (Loop.history t);
  (* the alarm's evidence stands on its own: re-verified from scratch
     against the vantages' public keys *)
  let g = Option.get (Loop.gossip_mesh t) in
  let forks = Gossip.forks g in
  Alcotest.(check bool) "at least one fork alarm" true (forks <> []);
  List.iter
    (fun a ->
      Alcotest.(check bool) "fork evidence verifies from scratch" true
        (Gossip.verify_fork ~key_of:(Gossip.key_of g) a))
    forks;
  (* and the fork names the right publication point *)
  let continental_uri = Pub_point.uri (Authority.pub sv.Scenario.victim_ca) in
  List.iter
    (fun a ->
      match a with
      | Gossip.Fork { fork_uri; _ } ->
        Alcotest.(check string) "forked point" continental_uri fork_uri
      | _ -> ())
    forks

(* A single vantage, no gossip: the stealthy fork is locally invisible —
   no fork alarm (there is no mesh), and no new validation issue beyond the
   grace bookkeeping note. *)
let test_single_vantage_misses_it () =
  let _, t, _ = run_with_attack ~monitors:0 ~grace:4 ~gossip_period:1 ~ticks:6 in
  Alcotest.(check bool) "no gossip mesh" true (Loop.gossip_mesh t = None);
  Alcotest.(check bool) "no fork tick" true (Loop.first_fork_tick t = None);
  List.iter
    (fun r ->
      match r.Loop.gossip_report with
      | Some _ -> Alcotest.fail "gossip ran without a mesh"
      | None -> ())
    (Loop.history t);
  (* every issue the victim saw after the fork is the grace hold, not a
     validation failure: the stealthy fork verifies locally *)
  match Relying_party.last_result (Loop.vantage t ~name:"victim-rp").Gossip.v_rp with
  | None -> Alcotest.fail "no sync result"
  | Some res ->
    List.iter
      (fun (i : Relying_party.issue) ->
        let is_grace_note =
          String.length i.Relying_party.reason >= 6
          && String.equal (String.sub i.Relying_party.reason 0 6) "grace:"
        in
        Alcotest.(check bool)
          ("local issue is only the grace note: " ^ i.Relying_party.reason)
          true is_grace_note)
      res.Relying_party.issues

(* An overt fork (file dropped, honest manifest kept) is locally visible:
   the victim's own validation flags the manifest mismatch. *)
let test_overt_fork_is_locally_visible () =
  let sv = Scenario.build { Scenario.default with monitors = 0 } in
  let t = sv.Scenario.sim in
  ignore (Scenario.run_split_view ~stealth:Split_view.Overt ~attack_at:2 ~ticks:2 sv);
  let r = List.nth (Loop.history t) 1 in
  Alcotest.(check bool) "manifest violation surfaces" true (r.Loop.issue_count > 0);
  match Relying_party.last_result (Loop.vantage t ~name:"victim-rp").Gossip.v_rp with
  | None -> Alcotest.fail "no sync result"
  | Some res ->
    Alcotest.(check bool) "a non-grace issue exists" true
      (List.exists
         (fun (i : Relying_party.issue) ->
           not
             (String.length i.Relying_party.reason >= 6
             && String.equal (String.sub i.Relying_party.reason 0 6) "grace:"))
         res.Relying_party.issues)

(* Lifting the fork heals the victim: the honest view returns and no new
   alarms are raised after the lift. *)
let test_lift_heals () =
  let _, t, atk = run_with_attack ~monitors:2 ~grace:8 ~gossip_period:1 ~ticks:4 in
  Split_view.lift atk (Loop.transport t);
  let before = List.length (Gossip.alarms (Option.get (Loop.gossip_mesh t))) in
  for now = 5 to 8 do
    ignore (Loop.step t ~now)
  done;
  let after = List.length (Gossip.alarms (Option.get (Loop.gossip_mesh t))) in
  Alcotest.(check int) "no new alarms after lift" before after;
  (* the victim route stayed up throughout: grace outlasted the fork *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "route up at t%d" r.Loop.time)
        true (probe_up r "continental-repo"))
    (Loop.history t)

(* The false-positive guard (ISSUE satellite): honest universe, three
   vantages, Slow and Stalling faults on repository points — a full run
   raises no alarm of any kind. *)
let test_no_false_positives_under_faulty_transport () =
  let sv = Scenario.build { Scenario.default with monitors = 3; grace = 2 } in
  let t = sv.Scenario.sim in
  let continental_uri = Pub_point.uri (Authority.pub sv.Scenario.victim_ca) in
  let sprint_uri =
    Pub_point.uri (Authority.pub (Option.get sv.Scenario.model).Model.sprint)
  in
  ignore (Loop.step t ~now:1);
  (* degrade different vantages differently: the victim's view of
     Continental crawls, one monitor's view of Sprint stalls outright *)
  Transport.set_fault (Loop.transport t) ~uri:continental_uri (Transport.Slow 3);
  Transport.set_fault
    (Loop.vantage_transport t ~name:"monitor-sprint")
    ~uri:sprint_uri (Transport.Stalling 50);
  for now = 2 to 6 do
    ignore (Loop.step t ~now)
  done;
  Transport.clear_fault (Loop.transport t) ~uri:continental_uri;
  Transport.clear_fault (Loop.vantage_transport t ~name:"monitor-sprint") ~uri:sprint_uri;
  for now = 7 to 9 do
    ignore (Loop.step t ~now)
  done;
  let g = Option.get (Loop.gossip_mesh t) in
  List.iter
    (fun a -> Alcotest.fail ("false positive: " ^ Gossip.describe_alarm a))
    (Gossip.alarms g)

(* Detection latency grows with the gossip period but detection never
   fails while grace holds. *)
let test_gossip_period_trades_latency () =
  List.iter
    (fun period ->
      let _, t, _ = run_with_attack ~monitors:2 ~grace:6 ~gossip_period:period ~ticks:10 in
      match Loop.first_fork_tick t with
      | None -> Alcotest.fail (Printf.sprintf "period %d: fork missed" period)
      | Some tk ->
        Alcotest.(check bool)
          (Printf.sprintf "period %d: detected by t%d" period tk)
          true
          (tk >= 3 && tk <= 3 + period))
    [ 1; 2; 3 ]

(* The late-fork regression: with gossip_period > 1 the victim syncs the
   tainted view on an off-round tick, so last-good absorbs it *before* the
   fork is proven.  The honest-side rollback must then walk the victim's
   own point history back to the newest state matching the proven-honest
   side's VRP-set hash — so both last-good and the RTR hold freeze at
   honest data, not at the absorbed tainted view. *)
let test_late_fork_rolls_back_last_good () =
  let sv = Scenario.build { Scenario.default with grace = 6; gossip_period = 2 } in
  let t = sv.Scenario.sim in
  let uri = Pub_point.uri (Authority.pub sv.Scenario.victim_ca) in
  let target =
    Rpki_core.Vrp.make ~max_len:20 (Rpki_ip.V4.p "63.174.16.0/20") 17054
  in
  let has_target l =
    List.exists (fun v -> Rpki_core.Vrp.compare v target = 0) l
  in
  ignore (Loop.step t ~now:1);
  ignore (Loop.step t ~now:2);
  let honest = List.assoc uri t.Loop.point_good in
  Alcotest.(check bool) "honest last-good carries the target VRP" true
    (has_target honest);
  let atk =
    Split_view.plan ~authority:sv.Scenario.victim_ca
      ~target_filename:sv.Scenario.victim_roa ()
  in
  Split_view.apply atk (Loop.transport t);
  (* t3 is an off-round tick (period 2): the tainted view is validated and
     absorbed into last-good with no gossip to contradict it *)
  ignore (Loop.step t ~now:3);
  Alcotest.(check bool) "no alarm on the off-round tick" true
    (Loop.first_fork_tick t = None);
  Alcotest.(check bool) "tainted view absorbed into last-good" false
    (has_target (List.assoc uri t.Loop.point_good));
  (* t4: the gossip round proves the fork one period late *)
  ignore (Loop.step t ~now:4);
  Alcotest.(check (option int)) "fork proven on the next round" (Some 4)
    (Loop.first_fork_tick t);
  (* last-good rolled back to the newest proven-honest state — byte-equal
     to what the victim itself validated before the fork *)
  let rolled = List.assoc uri t.Loop.point_good in
  Alcotest.(check int) "rolled last-good is the honest state"
    0
    (compare (List.map Rpki_core.Vrp.to_string honest)
       (List.map Rpki_core.Vrp.to_string rolled));
  (* and the hold pinned honest data: the suppressed VRP stays
     router-visible through the end of the run *)
  for now = 5 to 8 do
    ignore (Loop.step t ~now)
  done;
  let final = List.nth (Loop.history t) (List.length (Loop.history t) - 1) in
  Alcotest.(check bool) "hold active" true (final.Loop.rtr_holds > 0);
  Alcotest.(check bool) "suppressed VRP pinned at the honest state" true
    (has_target
       (Rpki_rtr.Session.cache_vrps (Rpki_rtr.Server.cache (Loop.rtr_server t))))

(* The equivocation alarm, driven for real: a hand-built vantage pair where
   the "equivocator" gossips one signed tree head, then is swapped for a
   same-named RP (same deterministic signing key, same log id) synced on a
   universe with one ROA's content changed — a head of the same size with a
   different root, which no consistency proof can justify.  The monitor's
   next pull must raise [Gossip.Inconsistent_heads] naming the peer, not a
   log-reset (the log id never changed) and not a fork (no delta records
   to cross-check). *)
let test_equivocating_head_raises_inconsistent_heads () =
  let endpoint name ip =
    Pub_point.create ~uri:("rsync://" ^ name ^ ".example/log")
      ~addr:(Rpki_ip.V4.addr_of_string_exn ip) ~host_asn:64600
  in
  let m_a = Model.build () in
  let rp_eq = Model.relying_party ~name:"equivocator" m_a in
  let rp_mon = Model.relying_party ~name:"monitor" m_a in
  ignore (Relying_party.sync rp_eq ~now:1 ~universe:m_a.Model.universe ());
  ignore (Relying_party.sync rp_mon ~now:1 ~universe:m_a.Model.universe ());
  let v_eq =
    { Gossip.v_name = "equivocator"; v_rp = rp_eq;
      v_endpoint = endpoint "equivocator" "192.0.2.1";
      v_transport = Transport.create () }
  in
  let v_mon =
    { Gossip.v_name = "monitor"; v_rp = rp_mon;
      v_endpoint = endpoint "monitor" "192.0.2.2";
      v_transport = Transport.create () }
  in
  let g = Gossip.create [ v_eq; v_mon ] in
  ignore (Gossip.round g ~now:1);
  Alcotest.(check (list string)) "clean baseline round" []
    (List.map Gossip.describe_alarm (Gossip.alarms g));
  let m_b = Model.build () in
  ignore (Model.add_fig5_right_roa m_b ~now:0);
  let rp_eq' = Model.relying_party ~name:"equivocator" m_b in
  ignore (Relying_party.sync rp_eq' ~now:2 ~universe:m_b.Model.universe ());
  v_eq.Gossip.v_rp <- rp_eq';
  ignore (Gossip.round g ~now:2);
  let inconsistent =
    List.filter
      (function Gossip.Inconsistent_heads _ -> true | _ -> false)
      (Gossip.alarms g)
  in
  (match inconsistent with
   | [] ->
     Alcotest.fail
       (match Gossip.alarms g with
        | [] -> "equivocating head raised no alarm at all"
        | a :: _ -> "wrong alarm kind: " ^ Gossip.describe_alarm a)
   | Gossip.Inconsistent_heads { ih_peer; ih_seen_by; ih_old; ih_new } :: _ ->
     Alcotest.(check string) "alarm names the equivocator" "equivocator" ih_peer;
     Alcotest.(check string) "seen by the monitor" "monitor" ih_seen_by;
     Alcotest.(check string) "same log id across both heads"
       ih_old.Rpki_transparency.Log.h_log_id ih_new.Rpki_transparency.Log.h_log_id;
     Alcotest.(check bool) "the new head does not extend the old" false
       (ih_old.Rpki_transparency.Log.h_size = ih_new.Rpki_transparency.Log.h_size
        && String.equal ih_old.Rpki_transparency.Log.h_root
             ih_new.Rpki_transparency.Log.h_root)
   | _ -> assert false);
  (* no collateral damage: the honest monitor is not accused *)
  List.iter
    (function
      | Gossip.Inconsistent_heads { ih_peer; _ } ->
        Alcotest.(check string) "only the equivocator is accused" "equivocator" ih_peer
      | _ -> ())
    (Gossip.alarms g)

(* --- reuse: the memoized fork, and the RTR view's index --------------- *)

(* What a fetch through [tr] serves for [point]. *)
let served tr point =
  match Transport.fetch tr ~point ~timeout:1 with
  | Transport.Served { files; fp; _ } -> (files, fp)
  | Transport.Stalled _ | Transport.Unroutable _ -> Alcotest.fail "fetch not served"

(* The fork a view keeps across honest changes is, byte for byte, the one
   a view installed just now forges, and the transport's fingerprint is
   the fingerprint of what it serves.  Both stealth levels; the changes
   are the point's own (put, delete) and the authority's (a new ROA, a
   revocation, a refresh, a key rollover). *)
let test_memoized_fork_equals_fresh_forge () =
  List.iter
    (fun stealth ->
      let m = Model.build () in
      let ca = m.Model.continental in
      let point = Authority.pub ca in
      let attack =
        Split_view.plan ~authority:ca ~target_filename:m.Model.roa_cb_25 ~stealth ()
      in
      let kept = Transport.instant () in
      Split_view.apply attack kept;
      let check label =
        let label = Split_view.stealth_to_string stealth ^ ", " ^ label in
        let files, fp = served kept point in
        let again, fp_again = served kept point in
        let fresh = Transport.instant () in
        Split_view.apply attack fresh;
        let fresh_files, fresh_fp = served fresh point in
        Alcotest.(check (list (pair string string))) (label ^ ": fork bytes") fresh_files files;
        Alcotest.(check string) (label ^ ": fingerprint") fresh_fp fp;
        Alcotest.(check string)
          (label ^ ": fingerprint of the served listing")
          (Pub_point.fingerprint_of_listing files) fp;
        Alcotest.(check bool) (label ^ ": an unchanged point is served the kept fork") true
          (again == files && String.equal fp_again fp);
        Alcotest.(check bool) (label ^ ": the target is gone") false
          (List.mem_assoc m.Model.roa_cb_25 files)
      in
      check "initial";
      Pub_point.put point ~filename:"extra.txt" "planted";
      check "after a put";
      Pub_point.delete point ~filename:"extra.txt";
      check "after a delete";
      ignore
        (Authority.issue_simple_roa ca ~asid:64500
           ~prefix:(Rpki_ip.V4.p "63.174.27.0/24") ~now:2 ());
      check "after a new ROA";
      Authority.revoke_roa ca ~filename:m.Model.roa_cb_26 ~now:3;
      check "after a revocation";
      Authority.refresh ca ~now:4;
      check "after a refresh";
      Authority.roll_key ca ~now:5;
      check "after a key rollover")
    [ Split_view.Stealthy; Split_view.Overt ]

(* A state a point serves again becomes its newest state again, so it
   outlives the states served in between: after A, B, A and seven more
   states, the eight-deep history still holds A for a late rollback. *)
let test_reobserved_state_is_newest () =
  let m = Model.build () in
  let rp = Model.relying_party m in
  let ca = m.Model.continental in
  let uri = Pub_point.uri (Authority.pub ca) in
  let sync now = ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ()) in
  let newest_hash () =
    match Rpki_transparency.Log.latest_for (Relying_party.transparency_log rp) ~uri with
    | Some ob -> ob.Rpki_transparency.Log.ob_vrp_hash
    | None -> Alcotest.fail "no observation of the point"
  in
  sync 1;
  let a = newest_hash () in
  let extra, _ =
    Authority.issue_simple_roa ca ~asid:64500 ~prefix:(Rpki_ip.V4.p "63.174.27.0/24") ~now:2 ()
  in
  sync 2;
  Authority.revoke_roa ca ~filename:extra ~now:3;
  sync 3;
  Alcotest.(check string) "the point serves A again" a (newest_hash ());
  List.iteri
    (fun k third_octet ->
      let now = 4 + k in
      ignore
        (Authority.issue_simple_roa ca ~asid:(64501 + k)
           ~prefix:(Rpki_ip.V4.p (Printf.sprintf "63.174.%d.0/24" third_octet)) ~now ());
      sync now)
    [ 17; 18; 19; 20; 21; 22; 24 ];
  Alcotest.(check bool) "A is still in the history" true
    (Relying_party.rollback_last_good rp ~uri ~vrp_hash:a <> None)

(* The RTR view's index is built once and patched with each delta after
   that.  On every tick of a split-view run it classifies like an index
   built afresh from the cache's set: the fork's VRP leaves at once (grace
   0, attack at t4), and the evidence the t6 gossip round verifies pins it
   back with a hold. *)
let test_rtr_index_tracks_the_cache () =
  let open Rpki_core in
  let rig =
    Scenario.build { Scenario.default with monitors = 2; grace = 0; gossip_period = 3 }
  in
  let sim = rig.Scenario.sim in
  let attack =
    Split_view.plan ~authority:rig.Scenario.victim_ca ~target_filename:rig.Scenario.victim_roa ()
  in
  let cache = Rpki_rtr.Server.cache (Loop.rtr_server sim) in
  let routes = ref [] in
  let changed = ref 0 and held = ref false in
  for now = 1 to 9 do
    if now = 4 then Split_view.apply attack (Loop.transport sim);
    let serial = Rpki_rtr.Session.cache_serial cache in
    ignore (Scenario.step rig ~now);
    if Rpki_rtr.Session.cache_serial cache <> serial then incr changed;
    if now = 1 then
      (* every announcement, and for every VRP its route, a foreign origin
         and a more-specific *)
      routes :=
        List.map
          (fun (a : Rpki_bgp.Propagation.announcement) ->
            Route.make a.Rpki_bgp.Propagation.prefix a.Rpki_bgp.Propagation.origin)
          sim.Loop.announcements
        @ List.concat_map
            (fun (v : Vrp.t) ->
              let p = v.Vrp.prefix in
              [ Route.make p v.Vrp.asn; Route.make p (v.Vrp.asn + 1);
                Route.make
                  (Rpki_ip.V4.Prefix.make (Rpki_ip.V4.Prefix.addr p)
                     (min 32 (Rpki_ip.V4.Prefix.len p + 4)))
                  v.Vrp.asn ])
            (Rpki_rtr.Session.cache_vrps cache);
    let fresh = Origin_validation.build (Rpki_rtr.Session.cache_vrps cache) in
    let index = Rpki_rtr.Session.cache_index cache in
    List.iter
      (fun route ->
        Alcotest.(check string)
          (Printf.sprintf "t%d: %s" now (Route.to_string route))
          (Origin_validation.state_to_string (Origin_validation.classify fresh route))
          (Origin_validation.state_to_string (Origin_validation.classify index route)))
      !routes;
    if Rpki_rtr.Session.cache_holds cache <> [] then held := true
  done;
  Alcotest.(check bool) "a hold was installed" true !held;
  Alcotest.(check bool) "the cache changed after the index was built" true (!changed >= 2)

let () =
  Alcotest.run "split-view"
    [ ("detection",
       [ Alcotest.test_case "gossiping vantages catch the fork before the route dies" `Quick
           test_detected_before_invalid;
         Alcotest.test_case "a single vantage misses the stealthy fork" `Quick
           test_single_vantage_misses_it;
         Alcotest.test_case "an overt fork is locally visible" `Quick
           test_overt_fork_is_locally_visible;
         Alcotest.test_case "lifting the fork heals without residual alarms" `Quick
           test_lift_heals;
         Alcotest.test_case "gossip period trades detection latency" `Quick
           test_gossip_period_trades_latency;
         Alcotest.test_case "a late-proven fork rolls last-good back to honest state"
           `Quick test_late_fork_rolls_back_last_good ]);
      ("equivocation",
       [ Alcotest.test_case "a same-size different-root head raises Inconsistent_heads"
           `Quick test_equivocating_head_raises_inconsistent_heads ]);
      ("false-positives",
       [ Alcotest.test_case "faulty-but-consistent transports never alarm" `Quick
           test_no_false_positives_under_faulty_transport ]);
      ("reuse",
       [ Alcotest.test_case "the kept fork is a fresh forge" `Quick
           test_memoized_fork_equals_fresh_forge;
         Alcotest.test_case "the RTR view's index tracks the cache" `Quick
           test_rtr_index_tracks_the_cache;
         Alcotest.test_case "a re-observed state is the newest again" `Quick
           test_reobserved_state_is_newest ]) ]
