(* Gossip overlays and Byzantine vantages.

   Structure: the overlay generators are deterministic in (spec, seed,
   names, round) and always connect the mesh (QCheck over seeds); a round
   over ANY connected overlay eventually raises the same Fork keys as the
   full mesh (observational property); the round-level STH memo collapses
   O(n²) head verifications to O(n) (counted against the global RSA
   verifier); a round signs exactly the heads its answered pulls serve,
   with the counts and alarms of signing each at its first pull; and an
   equivocating traitor eclipses the victim exactly when
   it owns every honest edge — while a mirrored shadow served to a victim
   with honest pre-attack history betrays itself. *)

open Rpki_repo
open Rpki_sim

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 5000)

let names_of n = List.init n (Printf.sprintf "v%02d")

let prop c name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:c ~name seed_gen p)

(* --- overlay generators: deterministic, connected, right-sized --- *)

let prop_k_regular seed =
  let n = 4 + (seed mod 37) in
  let names = names_of n in
  List.iter
    (fun k ->
      let pulls = Gossip.Overlay.pulls (K_regular k) ~seed ~round:1 names in
      let again = Gossip.Overlay.pulls (K_regular k) ~seed ~round:7 names in
      if pulls <> again then
        QCheck.Test.fail_reportf "k:%d not round-invariant (seed %d)" k seed;
      if not (Gossip.Overlay.connected pulls ~names) then
        QCheck.Test.fail_reportf "k:%d disconnected at n=%d (seed %d)" k n seed;
      if k mod 2 = 0 && k < n && List.length pulls <> n * k then
        QCheck.Test.fail_reportf "k:%d at n=%d gave %d pulls, wanted %d (seed %d)" k n
          (List.length pulls) (n * k) seed)
    [ 2; 3; 4 ];
  true

let prop_star_and_random seed =
  let n = 3 + (seed mod 29) in
  let names = names_of n in
  let h = 1 + (seed mod 3) in
  let star = Gossip.Overlay.pulls (Star h) ~seed ~round:2 names in
  if not (Gossip.Overlay.connected star ~names) then
    QCheck.Test.fail_reportf "star:%d disconnected at n=%d (seed %d)" h n seed;
  let k = min 2 (n - 1) in
  let r1 = Gossip.Overlay.pulls (Random_peers k) ~seed ~round:3 names in
  let r1' = Gossip.Overlay.pulls (Random_peers k) ~seed ~round:3 names in
  if r1 <> r1' then QCheck.Test.fail_reportf "random:%d not deterministic (seed %d)" k seed;
  List.iter
    (fun v ->
      let deg = List.length (List.filter (fun (r, _) -> String.equal r v) r1) in
      if deg <> k then
        QCheck.Test.fail_reportf "random:%d receiver %s pulls %d peers (seed %d)" k v deg
          seed)
    names;
  true

let test_overlay_strings () =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Gossip.Overlay.to_string o) true
        (Gossip.Overlay.of_string (Gossip.Overlay.to_string o) = Some o))
    [ Gossip.Overlay.Full_mesh; K_regular 4; Star 2; Random_peers 3 ];
  Alcotest.(check bool) "garbage" true (Gossip.Overlay.of_string "k:zero" = None);
  Alcotest.(check bool) "degree 0" true (Gossip.Overlay.of_string "k:0" = None)

(* --- the round-level STH memo: O(n) head verifications a round --- *)

let test_verify_count_drop () =
  let monitors = 7 in
  let n = monitors + 1 in
  (* park the loop's own gossip; drive rounds by hand *)
  let sv = Scenario.build { Scenario.default with monitors; gossip_period = 99 } in
  let t = sv.Scenario.sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  ignore (Gossip.round g ~now:1);
  (* warm round: every key exists, every log is stable *)
  ignore (Loop.step t ~now:2);
  let before = Rpki_crypto.Rsa.verification_count () in
  let rep = Gossip.round g ~now:2 in
  let delta = Rpki_crypto.Rsa.verification_count () - before in
  Alcotest.(check int) "full mesh runs n(n-1) pulls" (n * (n - 1)) rep.Gossip.r_pulls;
  (* one signature check per served log, not one per edge *)
  Alcotest.(check int) "RSA verifies = n" n delta;
  Alcotest.(check int) "report counts them" n rep.Gossip.r_verifies;
  Alcotest.(check int) "rest answered by the memo" ((n * (n - 1)) - n)
    rep.Gossip.r_verifies_saved

let test_pulls_skipped () =
  let monitors = 3 in
  let sv =
    Scenario.build
      { Scenario.default with monitors; gossip_period = 99; overlay = K_regular 2 }
  in
  let t = sv.Scenario.sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  let quiet = List.hd sv.Scenario.monitor_names in
  Gossip.set_server g ~name:quiet (fun ~receiver:_ -> (Loop.vantage t ~name:quiet).Gossip.v_rp);
  let rep = Gossip.round g ~now:1 in
  (* a Byzantine receiver pulls nothing: its out-edges are skipped, not run *)
  Alcotest.(check int) "skipped = the traitor's out-degree" 2 rep.Gossip.r_skipped;
  Alcotest.(check int) "the rest ran" ((4 * 2) - 2) rep.Gossip.r_pulls;
  Gossip.clear_server g ~name:quiet

(* --- which heads a round signs ------------------------------------- *)

module Log = Rpki_transparency.Log

(* A round signs only the heads its answered pulls serve.  One vantage's
   log grows while every receiver's transport finds its endpoint
   unreachable: that round leaves the head unsigned, and once the vantage
   is reachable again its receivers record the head signed then, CT-style,
   at the later tick. *)
let test_unpulled_head_unsigned () =
  let sv = Scenario.build { Scenario.default with monitors = 3; gossip_period = 99 } in
  let t = sv.Scenario.sim in
  let g = Option.get (Loop.gossip_mesh t) in
  ignore (Loop.step t ~now:1);
  ignore (Gossip.round g ~now:1);
  let name = List.hd sv.Scenario.monitor_names in
  let x = Loop.vantage t ~name in
  let log = Relying_party.transparency_log x.Gossip.v_rp in
  (match
     Log.append log
       { Log.ob_uri = "rsync://grown.example/repo/"; ob_serial = 1; ob_manifest_hash = "m";
         ob_vrp_hash = "v"; ob_snapshot_fp = "f"; ob_at = 2 }
   with
  | `Appended _ -> ()
  | `Unchanged -> Alcotest.fail "the log did not grow");
  let uri = Pub_point.uri x.Gossip.v_endpoint in
  let receivers =
    List.filter (fun v -> not (String.equal v.Gossip.v_name name)) (Gossip.vantages g)
  in
  List.iter (fun v -> Transport.set_fault v.Gossip.v_transport ~uri Transport.Unreachable) receivers;
  let rep = Gossip.round g ~now:2 in
  let from_x = List.filter (fun e -> String.equal e.Gossip.ex_from name) rep.Gossip.r_exchanges in
  Alcotest.(check int) "every receiver pulled it" (List.length receivers) (List.length from_x);
  Alcotest.(check bool) "and none was answered" true
    (List.for_all (fun e -> e.Gossip.ex_outcome = `Unroutable) from_x);
  Alcotest.(check bool) "the round left its head unsigned" false
    (Relying_party.head_signed x.Gossip.v_rp ~now:2);
  List.iter (fun v -> Transport.clear_fault v.Gossip.v_transport ~uri) receivers;
  let rep = Gossip.round g ~now:3 in
  Alcotest.(check int) "no alarms" 0 (List.length rep.Gossip.r_alarms);
  List.iter
    (fun v ->
      match List.assoc_opt name (Relying_party.peer_heads v.Gossip.v_rp) with
      | None -> Alcotest.fail (v.Gossip.v_name ^ " recorded no head")
      | Some h ->
        Alcotest.(check (pair int int))
          (v.Gossip.v_name ^ " records the grown head, signed at t3")
          (Log.size log, 3) (h.Log.h_size, h.Log.h_at))
    receivers

(* An equivocating hub whose shadow and honest logs both grow, over four
   hand-driven rounds.  At t1 the two logs hold the same records, so they
   sign byte-identical heads: one RSA check serves both.  At t3 the root
   re-signs its manifest, which every log records, and a split view forks
   the victim's and the shadow's view of Continental: both instances have
   fresh, different heads.  Each round's report, fork alarms and RSA
   verifications are pinned to what the round gave when it signed and
   checked heads lazily, pull by pull, and both instances end each round
   holding the head that round signed. *)
let test_equivocator_fresh_heads () =
  let sv = Scenario.build { Scenario.default with monitors = 3; gossip_period = 99 } in
  let t = sv.Scenario.sim in
  let g = Option.get (Loop.gossip_mesh t) in
  let model = Option.get sv.Scenario.model in
  let hub = List.nth sv.Scenario.monitor_names 2 in
  let honest = (Loop.vantage t ~name:hub).Gossip.v_rp in
  let shadow = Model.relying_party ~name:hub ~asn:(Relying_party.asn honest) model in
  let eq =
    Rpki_attack.Equivocator.plan ~universe:model.Model.universe ~name:hub ~shadow
      ~fork_to:(String.equal "victim-rp") ()
  in
  Rpki_attack.Equivocator.apply eq g;
  let attack =
    Rpki_attack.Split_view.plan ~authority:sv.Scenario.victim_ca
      ~target_filename:sv.Scenario.victim_roa ()
  in
  let signed_at rp ~now =
    if Relying_party.head_signed rp ~now then
      (Relying_party.signed_tree_head rp ~now).Log.sh_head.Log.h_at
    else -1
  in
  let round now =
    if now = 3 then begin
      Authority.refresh sv.Scenario.root ~now;
      Rpki_attack.Split_view.apply attack (Loop.transport t);
      Rpki_attack.Split_view.apply attack (Rpki_attack.Equivocator.shadow_transport eq)
    end;
    ignore (Loop.step t ~now);
    let before = Rpki_crypto.Rsa.verification_count () in
    let r = Gossip.round g ~now in
    let rsa = Rpki_crypto.Rsa.verification_count () - before in
    let forks =
      List.filter_map
        (function
          | Gossip.Fork { left; right; _ } ->
            Some (left.Gossip.att_vantage ^ "/" ^ right.Gossip.att_vantage)
          | _ -> None)
        r.Gossip.r_alarms
    in
    Printf.sprintf "t%d: %d pulls, %d verifies +%d, %d RSA, %d proofs +%d, %d B, forks [%s], signed at t%d/t%d"
      now r.Gossip.r_pulls r.Gossip.r_verifies r.Gossip.r_verifies_saved rsa
      r.Gossip.r_proofs_built r.Gossip.r_proofs_reused r.Gossip.r_proof_bytes
      (String.concat " " forks) (signed_at honest ~now) (signed_at shadow ~now)
  in
  (* the RSA count includes the shadow's own sync, which the round's
     refresh hook runs.  After the root's refresh at t3 that sync checks
     only the root's new manifest and CRL, replaying every unchanged object
     at the point, and at t4 it revalidates nothing: the refresh's
     thisUpdate is no boundary *)
  Alcotest.(check (list string)) "rounds"
    [ "t1: 9 pulls, 4 verifies +5, 39 RSA, 4 proofs +32, 2880 B, forks [], signed at t1/t1";
      "t2: 9 pulls, 4 verifies +5, 5 RSA, 1 proofs +8, 576 B, forks [], signed at t1/t1";
      "t3: 9 pulls, 5 verifies +4, 12 RSA, 7 proofs +17, 1440 B, forks [victim-rp/monitor-arin \
       monitor-sprint/victim-rp monitor-etb/victim-rp], signed at t3/t3";
      "t4: 9 pulls, 5 verifies +4, 6 RSA, 2 proofs +7, 576 B, forks [], signed at t3/t3" ]
    (List.map round [ 1; 2; 3; 4 ])

(* --- observational equivalence: any connected overlay, same forks --- *)

let fork_keys g =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Gossip.Fork { fork_uri; fork_serial; _ } -> Some (fork_uri, fork_serial)
         | _ -> None)
       (Gossip.alarms g))

let run_split ~overlay ~overlay_seed =
  let sv = Scenario.build { Scenario.default with monitors = 5; overlay; overlay_seed } in
  ignore (Scenario.run_split_view ~attack_at:3 ~ticks:6 sv);
  Option.get (Loop.gossip_mesh sv.Scenario.sim)

let prop_observational seed =
  let mesh = run_split ~overlay:Gossip.Overlay.Full_mesh ~overlay_seed:seed in
  let ring = run_split ~overlay:(K_regular 2) ~overlay_seed:seed in
  let mk = fork_keys mesh and rk = fork_keys ring in
  if mk = [] then QCheck.Test.fail_reportf "full mesh missed the fork (seed %d)" seed;
  if mk <> rk then
    QCheck.Test.fail_reportf "k:2 fork keys differ from the mesh (seed %d)" seed;
  (* the sparse overlay's evidence is as portable as the mesh's *)
  List.iter
    (fun a ->
      if Gossip.is_fork a && not (Gossip.verify_fork ~key_of:(Gossip.key_of ring) a) then
        QCheck.Test.fail_reportf "k:2 fork evidence failed re-verification (seed %d)" seed)
    (Gossip.alarms ring);
  true

(* --- Byzantine equivocators ------------------------------------------ *)

(* A scenario with the star hub — the last monitor — turned Byzantine
   (a mirroring shadow), under the given overlay. *)
let run_byzantine ~overlay ~attack_at ~ticks =
  let sv = Scenario.build { Scenario.default with monitors = 3; overlay } in
  let hub = List.nth sv.Scenario.monitor_names 2 in
  let equivocators = Scenario.equivocators sv [ hub ] in
  let run = Scenario.run_split_view ~equivocators ~attack_at ~ticks sv in
  (sv.Scenario.sim, Option.get (Loop.gossip_mesh sv.Scenario.sim), equivocators, run)

let test_equivocator_eclipse () =
  (* star:1 with a Byzantine hub: nobody honest ever examines the victim's
     log, the hub mirrors the victim's fork back at it — total eclipse *)
  let t, g, eqs, run = run_byzantine ~overlay:(Star 1) ~attack_at:1 ~ticks:5 in
  Alcotest.(check bool) "no honest neighbor" false run.Scenario.honest_adjacent;
  Alcotest.(check bool) "no detection" true (Loop.first_fork_tick t = None);
  Alcotest.(check bool) "no alarms at all" true (Gossip.alarms g = []);
  let eq = List.hd eqs in
  Alcotest.(check bool) "the victim was fed the shadow" true
    (Rpki_attack.Equivocator.served_forked eq >= 4);
  Alcotest.(check bool) "honest spokes got the honest log" true
    (Rpki_attack.Equivocator.served_honest eq >= 4)

let test_equivocator_honest_neighbor () =
  (* full mesh, one traitor: any honest monitor pulling the victim sees the
     fork on the first round *)
  let t, _, _, run = run_byzantine ~overlay:Gossip.Overlay.Full_mesh ~attack_at:1 ~ticks:3 in
  Alcotest.(check bool) "an honest neighbor" true run.Scenario.honest_adjacent;
  Alcotest.(check (option int)) "caught on round one" (Some 1) (Loop.first_fork_tick t)

let test_mirror_self_betrayal () =
  (* mid-history fork: the victim synced honestly first, so its own
     first-seen record conflicts with the mirrored shadow's delta and the
     victim raises the Fork itself — equivocation is self-defeating
     against a victim that holds honest history *)
  let t, _, _, _ = run_byzantine ~overlay:(Star 1) ~attack_at:3 ~ticks:5 in
  Alcotest.(check (option int)) "the victim betrays the mirror" (Some 3)
    (Loop.first_fork_tick t)

(* Turning monitors Byzantine needs the Section 6 model and real monitor
   names; anything else is refused before the mesh is touched. *)
let test_equivocators_misuse () =
  let raises what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": no Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  let sv = Scenario.build { Scenario.default with monitors = 2 } in
  raises "unknown monitor" (fun () -> Scenario.equivocators sv [ "monitor-nowhere" ]);
  raises "the victim is no monitor" (fun () -> Scenario.equivocators sv [ "victim-rp" ]);
  Alcotest.(check (list string)) "mesh left honest" []
    (Gossip.server_names (Option.get (Loop.gossip_mesh sv.Scenario.sim)));
  let world =
    Rpki_world.Synthesis.build
      { Rpki_world.Synthesis.default_spec with
        Rpki_world.Synthesis.graph =
          { Rpki_bgp.As_graph.default_spec with Rpki_bgp.As_graph.ases = 60; seed = 3 } }
  in
  let rig = Scenario.build { Scenario.default with source = Scenario.World world } in
  raises "no Section 6 model" (fun () ->
      Scenario.equivocators rig [ List.hd rig.Scenario.monitor_names ])

let () =
  Alcotest.run "gossip"
    [ ( "overlay",
        [ Alcotest.test_case "spec strings round-trip" `Quick test_overlay_strings;
          prop 40 "k-regular: connected, deterministic, O(n·k)" prop_k_regular;
          prop 40 "star connected; random sample deterministic" prop_star_and_random ] );
      ( "caching",
        [ Alcotest.test_case "STH memo: n verifies for n(n-1) pulls" `Quick
            test_verify_count_drop;
          Alcotest.test_case "r_pulls / r_skipped accounting" `Quick test_pulls_skipped;
          Alcotest.test_case "a head no answered pull serves stays unsigned" `Quick
            test_unpulled_head_unsigned;
          Alcotest.test_case "equivocator: shadow and honest heads both fresh" `Quick
            test_equivocator_fresh_heads ] );
      ( "observational",
        [ prop 4 "k:2 raises the mesh's fork keys, evidence portable" prop_observational ] );
      ( "byzantine",
        [ Alcotest.test_case "eclipsed victim: no honest edge, no alarm" `Quick
            test_equivocator_eclipse;
          Alcotest.test_case "one honest neighbor suffices" `Quick
            test_equivocator_honest_neighbor;
          Alcotest.test_case "mirrored shadow betrayed by honest history" `Quick
            test_mirror_self_betrayal;
          Alcotest.test_case "equivocators refuses misuse" `Quick test_equivocators_misuse ] ) ]
