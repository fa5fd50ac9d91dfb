(* Tests for the closed-loop simulator (Side Effect 7) and the deployment
   model (Side Effect 5). *)

open Rpki_sim
open Rpki_bgp

let probe hist label t =
  let r = List.nth hist (t - 1) in
  match List.assoc_opt label r.Loop.probe_results with
  | Some b -> b
  | None -> Alcotest.failf "no probe %s at t%d" label t

(* --- Side Effect 7 --- *)

let test_se7_drop_invalid_persists () =
  let _, hist = Scenario.run_section6 Scenario.section6 in
  Alcotest.(check int) "seven ticks" 7 (List.length hist);
  (* healthy before the fault *)
  Alcotest.(check bool) "t1 up" true (probe hist "continental-repo" 1);
  Alcotest.(check bool) "t2 up" true (probe hist "continental-repo" 2);
  (* the corruption lands at t3 and the repo becomes unreachable *)
  Alcotest.(check bool) "t3 down" false (probe hist "continental-repo" 3);
  (* the repository is repaired before t4, yet the failure persists *)
  Alcotest.(check bool) "t4 still down" false (probe hist "continental-repo" 4);
  Alcotest.(check bool) "t7 still down" false (probe hist "continental-repo" 7);
  (* the unrelated repository is never affected *)
  List.iter (fun t -> Alcotest.(check bool) "sprint up" true (probe hist "sprint-repo" t)) [ 1; 7 ]

let test_se7_depref_recovers () =
  let _, hist =
    Scenario.run_section6 { Scenario.section6 with policy = Policy.Depref_invalid }
  in
  (* under depref the repo stays reachable (the invalid route is depreffed
     but still selected), so the corrupt ROA is refetched after repair *)
  Alcotest.(check bool) "t4 recovered" true (probe hist "continental-repo" 4);
  Alcotest.(check bool) "t7 up" true (probe hist "continental-repo" 7)

let test_se7_vrp_counts () =
  let _, hist = Scenario.run_section6 Scenario.section6 in
  let vrps t = (List.nth hist (t - 1)).Loop.vrp_count in
  Alcotest.(check int) "nine before" 9 (vrps 2);
  Alcotest.(check int) "eight during" 8 (vrps 3);
  Alcotest.(check int) "still eight after repair" 8 (vrps 7)

let test_se7_fetch_failures_recorded () =
  let _, hist = Scenario.run_section6 Scenario.section6 in
  let r4 = List.nth hist 3 in
  Alcotest.(check bool) "continental fetch failed at t4" true
    (List.mem "rsync://rpki.continental.net/repo" r4.Loop.fetch_failures)

let test_se7_flush_cache_does_not_rescue () =
  (* the paper: recovery needs a manual fix; merely dropping the stale cache
     does not help because the repository is still unreachable *)
  let _, hist = Scenario.run_section6 ~flush_cache_at:6 Scenario.section6 in
  Alcotest.(check bool) "t7 still down" false (probe hist "continental-repo" 7)

let test_se7_flush_lands_on_its_tick () =
  (* the flush happens just before the named tick's step, so an earlier
     flush shows up in that tick's record, not at t6 *)
  let vrps hist t = (List.nth hist (t - 1)).Loop.vrp_count in
  let _, plain = Scenario.run_section6 Scenario.section6 in
  let _, flushed = Scenario.run_section6 ~flush_cache_at:4 Scenario.section6 in
  Alcotest.(check int) "t3 untouched" (vrps plain 3) (vrps flushed 3);
  Alcotest.(check bool)
    (Printf.sprintf "t4 record shows the flush (%d -> %d VRPs)" (vrps plain 4)
       (vrps flushed 4))
    true
    (vrps flushed 4 < vrps plain 4)

let test_se7_ignore_rpki_immune () =
  let _, hist = Scenario.run_section6 { Scenario.section6 with policy = Policy.Ignore_rpki } in
  List.iter
    (fun t -> Alcotest.(check bool) "always up" true (probe hist "continental-repo" t))
    [ 1; 3; 4; 7 ]

(* --- Side Effect 5 --- *)

let test_se5_monotone () =
  let rows = Deployment.sweep () in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  (* flips decrease monotonically with adoption *)
  let flips = List.map (fun (r : Deployment.row) -> r.Deployment.flips) rows in
  let rec decreasing = function
    | a :: b :: rest -> a >= b && decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (decreasing flips);
  (* zero adoption: every customer route flips *)
  let r0 = List.hd rows in
  Alcotest.(check int) "all customers flip at 0"
    (Deployment.default_spec.Deployment.n_providers
    * Deployment.default_spec.Deployment.customers_per_provider)
    r0.Deployment.flips;
  (* full adoption: nothing flips *)
  let r1 = List.nth rows 5 in
  Alcotest.(check int) "none at 1.0" 0 r1.Deployment.flips

let test_se5_no_invalid_before () =
  List.iter
    (fun (r : Deployment.row) ->
      Alcotest.(check int) "before: no invalid" 0 r.Deployment.before.Deployment.invalid)
    (Deployment.sweep ())

let test_se5_provider_routes_always_fine () =
  (* the provider's own route is valid after it issues its ROA *)
  let r = Deployment.run_once { Deployment.default_spec with Deployment.customer_adoption = 0.0 } in
  Alcotest.(check int) "providers valid after"
    Deployment.default_spec.Deployment.n_providers r.Deployment.after.Deployment.valid

let test_ordering_ablation () =
  let cover = Deployment.invalid_window ~spec:Deployment.default_spec Deployment.Cover_first in
  let sub = Deployment.invalid_window ~spec:Deployment.default_spec Deployment.Subprefixes_first in
  Alcotest.(check bool) "cover-first opens a window" true (cover > 0);
  Alcotest.(check int) "subprefixes-first is safe" 0 sub

let test_deployment_deterministic () =
  let a = Deployment.run_once Deployment.default_spec in
  let b = Deployment.run_once Deployment.default_spec in
  Alcotest.(check int) "same flips" a.Deployment.flips b.Deployment.flips

(* --- incremental data plane --- *)

let small_world =
  { Rpki_world.Synthesis.default_spec with
    Rpki_world.Synthesis.graph = { As_graph.default_spec with As_graph.ases = 120; seed = 3 };
    ca_min_cone = 10 }

(* The loop's data plane, rebuilt each tick from the previous one, must
   route exactly like a fresh build from the RTR cache's VRPs: the same
   probe verdicts, and the same trace from every vantage to every
   publication point.  Returns (RIBs recomputed by the loop, by a fresh
   build). *)
let check_against_fresh (t : Loop.t) ~now =
  let net = Option.get t.Loop.net in
  let idx =
    Rpki_core.Origin_validation.build
      (Rpki_rtr.Session.cache_vrps (Rpki_rtr.Server.cache (Loop.rtr_server t)))
  in
  let fresh =
    Data_plane.build ~topo:t.Loop.topo ~policy_of:(fun _ -> t.Loop.policy)
      ~validity_of:(Rpki_core.Origin_validation.classify idx) t.Loop.announcements
  in
  let rp_asn = Rpki_repo.Relying_party.asn t.Loop.rp in
  List.iter
    (fun (p : Loop.probe) ->
      Alcotest.(check bool)
        (Printf.sprintf "t%d probe %s" now p.Loop.label)
        (Data_plane.reaches fresh ~src:rp_asn ~addr:p.Loop.addr ~expected:p.Loop.expected_origin)
        (Data_plane.reaches net ~src:rp_asn ~addr:p.Loop.addr ~expected:p.Loop.expected_origin))
    t.Loop.probes;
  let sources =
    List.sort_uniq Int.compare
      (rp_asn
      :: List.map
           (fun v -> Rpki_repo.Relying_party.asn v.Rpki_repo.Gossip.v_rp)
           t.Loop.vantages)
  in
  List.iter
    (fun src ->
      List.iter
        (fun pp ->
          let addr = Rpki_repo.Pub_point.addr pp in
          if Data_plane.trace net ~src ~addr <> Data_plane.trace fresh ~src ~addr then
            Alcotest.failf "t%d: trace AS%d -> %s differs from a fresh build" now src
              (Rpki_repo.Pub_point.uri pp))
        (Rpki_repo.Universe.points t.Loop.universe))
    sources;
  (Data_plane.recomputed net, Data_plane.recomputed fresh)

(* The first tick builds every RIB; some later tick rebuilds only a part. *)
let check_reuse = function
  | [] -> ()
  | (first, all) :: later ->
    Alcotest.(check int) "first tick builds every RIB" all first;
    Alcotest.(check bool) "a validity change rebuilds only its prefixes" true
      (List.exists (fun (n, _) -> n > 0 && n < all) later)

let test_incremental_split_view () =
  (* grace 0: the forked-away ROA's route changes validity at once.  No
     monitors: a gossip hold lands on the RTR cache after the tick's data
     plane was built, so the cache would no longer describe it. *)
  let rig =
    Scenario.build
      { Scenario.default with
        source = Scenario.World (Rpki_world.Synthesis.build small_world); grace = 0;
        monitors = 0 }
  in
  let t = rig.Scenario.sim in
  let tick now =
    ignore (Loop.step t ~now);
    check_against_fresh t ~now
  in
  let t1 = tick 1 in
  let t2 = tick 2 in
  Rpki_attack.Split_view.apply
    (Rpki_attack.Split_view.plan ~authority:rig.Scenario.victim_ca
       ~target_filename:rig.Scenario.victim_roa ())
    (Loop.transport t);
  Alcotest.(check int) "quiet second tick reuses every RIB" 0 (fst t2);
  check_reuse (t1 :: t2 :: List.map tick [ 3; 4; 5; 6; 7; 8 ])

let test_incremental_fault_mix () =
  let rig =
    Scenario.build
      { Scenario.default with
        source = Scenario.World (Rpki_world.Synthesis.build small_world); monitors = 0;
        fetch_policy = Some Rpki_repo.Relying_party.default_policy;
        fault_mix = Some { Scenario.seed = 7; rate = 0.5; repair_after = None } }
  in
  let counts =
    List.map
      (fun now ->
        ignore (Scenario.step rig ~now);
        check_against_fresh rig.Scenario.sim ~now)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  check_reuse counts

let () =
  Alcotest.run "sim"
    [ ( "side-effect-7",
        [ Alcotest.test_case "drop-invalid persists" `Quick test_se7_drop_invalid_persists;
          Alcotest.test_case "depref recovers" `Quick test_se7_depref_recovers;
          Alcotest.test_case "vrp counts" `Quick test_se7_vrp_counts;
          Alcotest.test_case "fetch failures" `Quick test_se7_fetch_failures_recorded;
          Alcotest.test_case "cache flush does not rescue" `Quick test_se7_flush_cache_does_not_rescue;
          Alcotest.test_case "cache flush lands on its tick" `Quick
            test_se7_flush_lands_on_its_tick;
          Alcotest.test_case "ignore-rpki immune" `Quick test_se7_ignore_rpki_immune ] );
      ( "side-effect-5",
        [ Alcotest.test_case "monotone in adoption" `Quick test_se5_monotone;
          Alcotest.test_case "no invalid before" `Quick test_se5_no_invalid_before;
          Alcotest.test_case "provider routes valid" `Quick test_se5_provider_routes_always_fine;
          Alcotest.test_case "ordering ablation" `Quick test_ordering_ablation;
          Alcotest.test_case "deterministic" `Quick test_deployment_deterministic ] );
      ( "incremental-data-plane",
        [ Alcotest.test_case "split view on a world" `Quick test_incremental_split_view;
          Alcotest.test_case "fault mix on a world" `Quick test_incremental_fault_mix ] ) ]
