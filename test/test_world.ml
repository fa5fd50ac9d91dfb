(* The world generator and universe synthesis.

   Properties (QCheck over random specs):
   - generation is deterministic in the seed;
   - the graph is connected and valley-free by construction: a route
     originated at ANY stub reaches every AS under Gao-Rexford export;
   - the degree distribution is heavy-tailed: the max/median degree ratio
     grows with graph size.

   Plus unit coverage of the metadata (roles, cones, of_topology on the
   fixed paper scenario), placement policies, universe synthesis
   invariants (nested allocations, CA hierarchy, victim rigging), and the
   end-to-end acceptance bar: split-view detection succeeds on a generated
   world under degree-based vantage placement — and fails without a mesh. *)

open Rpki_core
open Rpki_bgp
module Synthesis = Rpki_world.Synthesis
module Placement = Rpki_world.Placement
module Loop = Rpki_sim.Loop
module Scenario = Rpki_sim.Scenario

let all_valid (_ : Route.t) = Origin_validation.Valid

let spec_gen =
  QCheck.Gen.(
    let* ases = int_range 30 300 in
    let* tier1 = int_range 2 6 in
    let* attach = int_range 1 3 in
    let* peer_fraction = float_bound_inclusive 0.2 in
    let* seed = int_range 0 1_000_000 in
    return
      { As_graph.ases; tier1; attach; peer_fraction; seed; first_asn = 1 })

let spec_print (s : As_graph.spec) =
  Printf.sprintf "{ases=%d; tier1=%d; attach=%d; peer_fraction=%.3f; seed=%d}"
    s.As_graph.ases s.As_graph.tier1 s.As_graph.attach s.As_graph.peer_fraction
    s.As_graph.seed

let spec_arb = QCheck.make ~print:spec_print spec_gen

(* --- determinism -------------------------------------------------------- *)

let fingerprint g =
  let topo = As_graph.topology g in
  List.map
    (fun asn ->
      ( asn,
        List.sort Int.compare (Topology.providers topo asn),
        List.sort Int.compare (Topology.peers topo asn),
        As_graph.role g asn,
        As_graph.cone_size g asn ))
    (As_graph.asns g)

let prop_deterministic =
  QCheck.Test.make ~name:"generate is deterministic in the seed" ~count:30 spec_arb
    (fun spec ->
      fingerprint (As_graph.generate spec) = fingerprint (As_graph.generate spec))

(* --- connectivity / valley-freeness ------------------------------------- *)

let reaches_everyone g origin =
  let topo = As_graph.topology g in
  match
    Propagation.compute ~topo
      ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid
      [ { Propagation.prefix = Rpki_ip.V4.p "172.16.0.0/16"; origin } ]
  with
  | Propagation.Stable rib ->
    List.for_all (fun asn -> Propagation.route rib asn <> None) (As_graph.asns g)
  | Propagation.Oscillating -> false

let prop_stub_reaches_everyone =
  QCheck.Test.make ~name:"a random stub's route reaches every AS" ~count:20 spec_arb
    (fun spec ->
      let g = As_graph.generate spec in
      match As_graph.stubs g with
      | [] -> QCheck.assume_fail () (* tiny dense worlds may have no stub *)
      | stubs ->
        let origin = List.nth stubs (spec.As_graph.seed mod List.length stubs) in
        reaches_everyone g origin)

(* The exhaustive version on one fixed mid-size world: every single stub. *)
let test_every_stub_reaches_everyone () =
  let g = As_graph.generate { As_graph.default_spec with As_graph.ases = 200 } in
  List.iter
    (fun stub ->
      Alcotest.(check bool)
        (Printf.sprintf "AS%d's route reaches all %d ASes" stub (As_graph.size g))
        true (reaches_everyone g stub))
    (As_graph.stubs g)

(* --- heavy tail --------------------------------------------------------- *)

let ratio g =
  let st = As_graph.degree_stats g in
  float_of_int st.As_graph.d_max /. float_of_int (max 1 st.As_graph.d_median)

let prop_heavy_tail =
  QCheck.Test.make ~name:"max/median degree ratio grows with size" ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let at ases =
        ratio (As_graph.generate { As_graph.default_spec with As_graph.ases; seed })
      in
      let small = at 150 and large = at 1500 in
      if not (large > small) then
        QCheck.Test.fail_reportf
          "tail did not grow: ratio %.1f at 150 ASes vs %.1f at 1500" small large;
      large > small && large >= 8.)

(* --- metadata ----------------------------------------------------------- *)

let test_roles_and_cones () =
  let g = As_graph.generate { As_graph.default_spec with As_graph.ases = 400 } in
  Alcotest.(check int) "tier1 count" As_graph.default_spec.As_graph.tier1
    (List.length (As_graph.tier1s g));
  Alcotest.(check int) "roles partition the graph" 400
    (List.length (As_graph.tier1s g)
    + List.length (As_graph.transits g)
    + List.length (As_graph.stubs g));
  List.iter
    (fun s -> Alcotest.(check int) (Printf.sprintf "stub AS%d cone" s) 1 (As_graph.cone_size g s))
    (As_graph.stubs g);
  (* the biggest tier-1 cone holds a sizable share of the graph *)
  let max_cone =
    List.fold_left (fun acc a -> max acc (As_graph.cone_size g a)) 0 (As_graph.tier1s g)
  in
  Alcotest.(check bool)
    (Printf.sprintf "a tier-1 cone spans a big share (%d/400)" max_cone)
    true (max_cone >= 100);
  (* by_degree is sorted *)
  let degs = List.map (As_graph.degree g) (As_graph.by_degree g) in
  Alcotest.(check bool) "by_degree descending" true
    (List.for_all2 ( >= ) (List.filteri (fun i _ -> i < 399) degs) (List.tl degs))

let test_of_topology_small () =
  let s = Topo_gen.small_scenario () in
  let g = Topo_gen.small_graph s in
  Alcotest.(check bool) "t1a is tier-1" true (As_graph.role g s.Topo_gen.t1a = As_graph.Tier1);
  Alcotest.(check bool) "mid1 is transit" true
    (As_graph.role g s.Topo_gen.mid1 = As_graph.Transit);
  Alcotest.(check bool) "victim is a stub" true
    (As_graph.role g s.Topo_gen.victim = As_graph.Stub);
  Alcotest.(check bool) "attacker is a stub" true
    (As_graph.role g s.Topo_gen.attacker = As_graph.Stub);
  (* t1a's cone: itself, mid1, mid2, victim, source *)
  Alcotest.(check int) "t1a cone" 5 (As_graph.cone_size g s.Topo_gen.t1a);
  Alcotest.(check int) "victim cone" 1 (As_graph.cone_size g s.Topo_gen.victim)

let test_topo_gen_wrapper () =
  let spec = Topo_gen.default_spec in
  let g = Topo_gen.generate spec in
  Alcotest.(check int) "tier1 asns" spec.Topo_gen.tier1 (List.length g.Topo_gen.tier1_asns);
  Alcotest.(check int) "tier2 asns" spec.Topo_gen.tier2 (List.length g.Topo_gen.tier2_asns);
  Alcotest.(check int) "stub asns" spec.Topo_gen.stubs (List.length g.Topo_gen.stub_asns);
  Alcotest.(check int) "graph metadata covers the topology"
    (spec.Topo_gen.tier1 + spec.Topo_gen.tier2 + spec.Topo_gen.stubs)
    (As_graph.size g.Topo_gen.graph);
  List.iter
    (fun t1 ->
      Alcotest.(check bool) "tier1 role" true
        (As_graph.role g.Topo_gen.graph t1 = As_graph.Tier1))
    g.Topo_gen.tier1_asns

(* --- placement ---------------------------------------------------------- *)

let test_placement () =
  let g = As_graph.generate { As_graph.default_spec with As_graph.ases = 300 } in
  let top = Placement.vantage_asns g Placement.By_degree ~count:5 ~exclude:[] in
  Alcotest.(check int) "five vantages" 5 (List.length top);
  let all_degrees = List.map (As_graph.degree g) (As_graph.asns g) in
  let fifth = List.nth (List.sort (fun a b -> Int.compare b a) all_degrees) 4 in
  List.iter
    (fun a ->
      Alcotest.(check bool) "by_degree picks top-degree ASes" true
        (As_graph.degree g a >= fifth))
    top;
  (* exclusion is respected and refills from the order *)
  let without = Placement.vantage_asns g Placement.By_degree ~count:5 ~exclude:[ List.hd top ] in
  Alcotest.(check bool) "excluded AS absent" true (not (List.mem (List.hd top) without));
  (* role placement covers all three roles *)
  let roles =
    Placement.vantage_asns g Placement.By_role ~count:3 ~exclude:[]
    |> List.map (As_graph.role g) |> List.sort_uniq compare
  in
  Alcotest.(check int) "role placement spans the hierarchy" 3 (List.length roles);
  (* random placement is seeded: deterministic, and another seed differs *)
  let r1 = Placement.vantage_asns g (Placement.Random 5) ~count:10 ~exclude:[] in
  let r2 = Placement.vantage_asns g (Placement.Random 5) ~count:10 ~exclude:[] in
  let r3 = Placement.vantage_asns g (Placement.Random 6) ~count:10 ~exclude:[] in
  Alcotest.(check bool) "random placement deterministic" true (r1 = r2);
  Alcotest.(check bool) "random placement seed-sensitive" true (r1 <> r3)

(* --- universe synthesis ------------------------------------------------- *)

let small_world_spec =
  { Synthesis.default_spec with
    Synthesis.graph = { As_graph.default_spec with As_graph.ases = 120; seed = 3 };
    ca_min_cone = 10 }

let test_synthesis_invariants () =
  let w = Synthesis.build small_world_spec in
  let g = Synthesis.graph w in
  (* every AS has a distinct /24 *)
  let prefixes = List.map (Synthesis.prefix_of w) (As_graph.asns g) in
  Alcotest.(check int) "distinct /24 per AS" (As_graph.size g)
    (List.length (List.sort_uniq compare prefixes));
  (* CAs exist below the root and cover the victim *)
  Alcotest.(check bool) "has CAs" true (Synthesis.cas w <> []);
  let victim = Synthesis.victim w in
  Alcotest.(check bool) "victim is a stub" true (As_graph.role g victim = As_graph.Stub);
  Alcotest.(check bool) "victim is covered" true (Synthesis.roa_of w victim <> None);
  Alcotest.(check bool) "rp differs from victim" true (Synthesis.rp_asn w <> victim);
  (* the victim's prefix is inside its CA's certified resources *)
  let ca = Synthesis.victim_ca w in
  let ca_res = (Rpki_repo.Authority.cert ca).Cert.resources in
  let victim_res =
    Resources.make
      ~v4:(Rpki_ip.V4.Set.of_prefix (Synthesis.prefix_of w victim)) ()
  in
  Alcotest.(check bool) "victim prefix inside its CA's resources" true
    (Resources.subset victim_res ca_res);
  (* announcements stay bounded: repository hosts + victim + rp *)
  let anns = Synthesis.base_announcements w in
  Alcotest.(check bool)
    (Printf.sprintf "bounded announcements (%d)" (List.length anns))
    true
    (List.length anns <= List.length (Synthesis.cas w) + 3);
  (* determinism *)
  let w2 = Synthesis.build small_world_spec in
  Alcotest.(check string) "synthesis deterministic" (Synthesis.summary w)
    (Synthesis.summary w2)

(* A sync takes each certificate's fingerprint from the bytes it was served
   as, once, and each point's VRP-set hash once.  On a synthesized world,
   walked from the trust anchor through the shared cache (each certificate
   once: the trust anchor lists itself): every child's fingerprint is the
   digest of its encoding and keys the child's own outcome, and every
   VRP-set hash is the digest of the sorted VRP dump. *)
(* Two outcomes of one point agree on everything the walk and the log
   read from them. *)
let same_outcome what (a : Rpki_repo.Valcache.outcome) (b : Rpki_repo.Valcache.outcome) =
  let module Valcache = Rpki_repo.Valcache in
  let check_strings field f = Alcotest.(check (list string)) (field ^ " of " ^ what) (f a) (f b) in
  check_strings "VRPs" (fun o -> List.map Vrp.to_string o.Valcache.o_vrps);
  check_strings "VRP-set hash" (fun o -> [ o.Valcache.o_vrp_hash ]);
  check_strings "issues"
    (fun o ->
      List.map
        (fun (filename, kind, reason) ->
          Printf.sprintf "%s %s: %s" (Option.value filename ~default:"-")
            (Validation.issue_kind_to_string kind) reason)
        o.Valcache.o_issues);
  check_strings "children"
    (fun o -> List.map (fun ((c : Cert.t), fp) -> c.Cert.subject ^ " " ^ fp) o.Valcache.o_children);
  check_strings "manifest"
    (fun o -> [ string_of_int o.Valcache.o_mft_number; o.Valcache.o_mft_hash ]);
  check_strings "boundaries" (fun o -> List.map string_of_int o.Valcache.o_boundaries)

let test_outcome_digests () =
  let module Sha256 = Rpki_crypto.Sha256 in
  let module Relying_party = Rpki_repo.Relying_party in
  let module Valcache = Rpki_repo.Valcache in
  let w = Synthesis.build small_world_spec in
  let universe = Synthesis.universe w in
  let rp =
    Relying_party.create ~name:"rp" ~asn:(Synthesis.rp_asn w)
      ~tals:[ Relying_party.tal_of_authority (Synthesis.root w) ] ()
  in
  let valcache = Valcache.create () in
  ignore (Relying_party.sync rp ~now:1 ~universe ~valcache ());
  let vrp_hash vrps =
    Sha256.digest (String.concat "\n" (List.map Vrp.to_string (List.sort_uniq Vrp.compare vrps)))
  in
  let seen = Hashtbl.create 64 in
  let rec walk ((c : Cert.t), fp) =
    Alcotest.(check string) ("fingerprint of " ^ c.Cert.subject) (Sha256.digest (Cert.encode c)) fp;
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.add seen fp ();
      let point = Rpki_repo.Universe.find_exn universe (Option.get c.Cert.repo_uri) in
      match
        Valcache.find_point valcache ~parent_fp:fp
          ~snap_fp:(Rpki_repo.Pub_point.fingerprint point) ~now:1
      with
      | None -> Alcotest.fail ("no outcome under the fingerprint of " ^ c.Cert.subject)
      | Some o ->
        Alcotest.(check string) ("VRP-set hash of " ^ c.Cert.subject)
          (vrp_hash o.Valcache.o_vrps) o.Valcache.o_vrp_hash;
        (* the pure point validator, called directly on the same listing,
           gives back the outcome the sync stored *)
        let direct, _ =
          Rpki_repo.Point.validate ~now:1 ~ca_cert:c ~parent_fp:fp
            ~snap_fp:(Rpki_repo.Pub_point.fingerprint point)
            (Rpki_repo.Pub_point.snapshot point)
        in
        same_outcome c.Cert.subject o direct;
        List.iter walk o.Valcache.o_children
    end
  in
  let ta = Rpki_repo.Authority.cert (Synthesis.root w) in
  walk (ta, Sha256.digest (Cert.encode ta));
  Alcotest.(check int) "every CA reached" (List.length (Synthesis.cas w) + 1) (Hashtbl.length seen)

(* Every byte a world publishes, hashed in a fixed order: each point's URI,
   then each file's name and contents, points and files sorted.  The
   literals pin key generation, signing and synthesis order: making keys
   ahead of time and issuing each CA's ROAs as one batch, both on several
   Domains, must not move a byte.  The larger worlds are the benchmark's
   sizes. *)
let world_digest w =
  let module Sha256 = Rpki_crypto.Sha256 in
  let module Pub_point = Rpki_repo.Pub_point in
  let ctx = Sha256.init () in
  let field s =
    Sha256.feed ctx (Printf.sprintf "%d:" (String.length s));
    Sha256.feed ctx s
  in
  Rpki_repo.Universe.points (Synthesis.universe w)
  |> List.sort (fun a b -> String.compare (Pub_point.uri a) (Pub_point.uri b))
  |> List.iter (fun p ->
         field (Pub_point.uri p);
         List.iter
           (fun (name, bytes) ->
             field name;
             field bytes)
           (List.sort (fun (a, _) (b, _) -> String.compare a b) (Pub_point.files p)));
  Rpki_util.Hex.of_string (Sha256.finish ctx)

let test_golden_world ases digest () =
  let spec =
    { Synthesis.default_spec with
      Synthesis.graph = { As_graph.default_spec with As_graph.ases; seed = 11 } }
  in
  Alcotest.(check string) (Printf.sprintf "%d-AS world, seed 11" ases) digest
    (world_digest (Synthesis.build spec))

(* --- end-to-end: split-view detection on a generated world -------------- *)

let run_split_view ~monitors =
  let rig =
    Scenario.build
      { Scenario.default with
        source = Scenario.World (Synthesis.build small_world_spec); monitors;
        placement = Placement.By_degree }
  in
  let t = rig.Scenario.sim in
  ignore (Scenario.run_split_view ~attack_at:3 ~ticks:10 rig);
  let r2 = List.nth (Loop.history t) 1 in
  Alcotest.(check bool) "victim probe up before the attack" true
    (List.assoc "victim-prefix" r2.Loop.probe_results);
  (rig, Loop.first_fork_tick t)

let test_split_view_detected_on_world () =
  let rig, fork = run_split_view ~monitors:3 in
  (match fork with
  | None -> Alcotest.fail "no fork alarm on a gossiping generated world"
  | Some tick ->
    Alcotest.(check bool)
      (Printf.sprintf "fork detected within grace (tick %d)" tick)
      true (tick <= 3 + 4));
  Alcotest.(check int) "three monitors registered" 3 (List.length rig.Scenario.monitor_names)

let test_split_view_missed_without_mesh () =
  let _, fork = run_split_view ~monitors:0 in
  Alcotest.(check bool) "single vantage cannot detect the fork" true (fork = None)

(* Stalloris on a generated world: trickle the victim CA's publication
   point under perfect upkeep and short validity windows — its subtree's
   VRPs lapse; lift the stall and the relying party recovers in full. *)
let test_stall_on_world () =
  let wspec =
    { small_world_spec with
      Synthesis.validity = Some 5; refresh_interval = Some 3 }
  in
  (* grace 0: expired VRPs drop immediately instead of being held *)
  let w = Synthesis.build wspec in
  let rig =
    Scenario.build
      { Scenario.default with source = Scenario.World w; monitors = 0; grace = 0 }
  in
  let t = rig.Scenario.sim in
  let churn ~now = Rpki_repo.Authority.maintain (Synthesis.root w) ~now in
  churn ~now:1;
  ignore (Loop.step t ~now:1);
  churn ~now:2;
  let healthy = (Loop.step t ~now:2).Loop.vrp_count in
  let plan =
    Rpki_attack.Stall.plan_against ~victim:(Synthesis.victim_ca w) ~intensity:256
  in
  Rpki_attack.Stall.apply plan (Loop.transport t);
  for now = 3 to 8 do
    churn ~now;
    ignore (Loop.step t ~now)
  done;
  let stalled = List.hd (Loop.history t |> List.rev) in
  Alcotest.(check bool)
    (Printf.sprintf "stalled CA's VRPs lapsed (%d -> %d)" healthy stalled.Loop.vrp_count)
    true
    (stalled.Loop.vrp_count <= healthy - 2);
  (* the cover ROA lapses with the victim's, so the route degrades to
     NotFound — routable, which is exactly the paper's downgrade *)
  Alcotest.(check bool) "victim still routable (downgrade, not outage)" true
    (List.assoc "victim-prefix" stalled.Loop.probe_results);
  Rpki_attack.Stall.lift plan (Loop.transport t);
  for now = 9 to 12 do
    churn ~now;
    ignore (Loop.step t ~now)
  done;
  let final = List.hd (Loop.history t |> List.rev) in
  Alcotest.(check int) "full recovery after the stall lifts" healthy
    final.Loop.vrp_count

(* Crash/restart on a generated world: kill the persisted victim RP
   mid-run, bring it back via the rig's respawn builder, and require a
   verified snapshot restore plus an unchanged VRP view. *)
let test_restart_on_world () =
  let rig =
    Scenario.build
      { Scenario.default with
        source = Scenario.World (Synthesis.build small_world_spec); persist = true }
  in
  let t = rig.Scenario.sim in
  for now = 1 to 4 do
    ignore (Loop.step t ~now)
  done;
  let before = List.hd (Loop.history t |> List.rev) in
  Loop.kill_vantage t ~name:"victim-rp";
  ignore (Loop.step t ~now:5);
  let recovery =
    Loop.restart_vantage t ~name:"victim-rp" ~now:6
      ~make:rig.Scenario.respawn
  in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot restore succeeded (%s)"
       (Rpki_repo.Relying_party.recovery_to_string recovery))
    true
    (match recovery with Rpki_repo.Relying_party.Recovered _ -> true | _ -> false);
  for now = 6 to 9 do
    ignore (Loop.step t ~now)
  done;
  let after = List.hd (Loop.history t |> List.rev) in
  Alcotest.(check int) "VRP view unchanged across the restart"
    before.Loop.vrp_count after.Loop.vrp_count;
  Alcotest.(check bool) "victim probe up after the restart" true
    (List.assoc "victim-prefix" after.Loop.probe_results)

let () =
  Alcotest.run "world"
    [ ( "generator-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_deterministic; prop_stub_reaches_everyone; prop_heavy_tail ] );
      ( "generator-units",
        [ Alcotest.test_case "every stub of a 200-AS world reaches everyone" `Slow
            test_every_stub_reaches_everyone;
          Alcotest.test_case "roles, cones, degree order" `Quick test_roles_and_cones;
          Alcotest.test_case "of_topology wraps the fixed paper scenario" `Quick
            test_of_topology_small;
          Alcotest.test_case "Topo_gen delegates to the world generator" `Quick
            test_topo_gen_wrapper ] );
      ( "placement",
        [ Alcotest.test_case "degree / role / random policies" `Quick test_placement ] );
      ( "synthesis",
        [ Alcotest.test_case "allocation and CA-hierarchy invariants" `Quick
            test_synthesis_invariants;
          Alcotest.test_case "golden digest of a 200-AS world" `Quick
            (test_golden_world 200
               "0110cacb61fea546320f59728a53653cdf196ca6e912814937e8502ed18cf93f");
          Alcotest.test_case "golden digest of a 600-AS world" `Quick
            (test_golden_world 600
               "1b44e132b46dc1c9ee3e3eae40cb80d95847f54244d78ff73638b737246287fb");
          Alcotest.test_case "golden digest of a 1000-AS world" `Quick
            (test_golden_world 1000
               "eeb90b0fc4a6bb8d3a75c22457c06810417aec3814ac9d7f2b162746472e0e13");
          Alcotest.test_case "golden digest of a 2000-AS world" `Slow
            (test_golden_world 2000
               "c1f94f654f7a38815e6cd5febd59f34d4b49bf6b8fca76d46c8973d2f1f134ec");
          Alcotest.test_case "outcome digests equal recomputed ones" `Quick
            test_outcome_digests ] );
      ( "end-to-end",
        [ Alcotest.test_case "split view detected on a generated world" `Slow
            test_split_view_detected_on_world;
          Alcotest.test_case "missed without a gossip mesh" `Slow
            test_split_view_missed_without_mesh;
          Alcotest.test_case "stall downgrade and recovery on a generated world" `Slow
            test_stall_on_world;
          Alcotest.test_case "crash/restart restores the view on a generated world"
            `Slow test_restart_on_world ] ) ]
