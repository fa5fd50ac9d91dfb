(* The `perf` experiment: the Bechamel microbenchmark suite, each
   benchmark's time per run on the monotonic clock. *)

open Bechamel
open Toolkit
open Rpki_core
open Rpki_ip

let drbg_rng seed = Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed)

(* [rsa-keygen-512] makes one key from each of 16 fixed seeds per run, a
   fresh DRBG each, and reports the time per key.  A key's cost follows the
   prime pairs its seed draws and throws away: one seed's key is no typical
   key ("bench-keygen" takes 3 pairs, world-large's 70 keys average 1.79). *)
let keygen_seeds = List.init 16 (Printf.sprintf "bench-keygen-%d")

let operations_per_run name =
  if String.ends_with ~suffix:"/rsa-keygen-512" name then List.length keygen_seeds else 1

let bench_crypto () =
  let keypair = Rpki_crypto.Rsa.generate (drbg_rng "bench-keypair") in
  let msg_1k = String.make 1024 'x' in
  let msg_64k = String.make 65536 'x' in
  let signature = Rpki_crypto.Rsa.sign ~key:keypair.Rpki_crypto.Rsa.private_ msg_1k in
  Test.make_grouped ~name:"crypto"
    [ Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"));
      Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest msg_1k));
      Test.make ~name:"sha256-64KiB" (Staged.stage (fun () -> Rpki_crypto.Sha256.digest msg_64k));
      Test.make ~name:"rsa-sign-512" (Staged.stage (fun () -> Rpki_crypto.Rsa.sign ~key:keypair.Rpki_crypto.Rsa.private_ msg_1k));
      (* every run draws the same primes *)
      Test.make ~name:"rsa-keygen-512"
        (Staged.stage (fun () ->
             List.iter (fun seed -> ignore (Rpki_crypto.Rsa.generate (drbg_rng seed))) keygen_seeds));
      Test.make ~name:"rsa-verify-512"
        (Staged.stage (fun () -> Rpki_crypto.Rsa.verify ~key:keypair.Rpki_crypto.Rsa.public ~signature msg_1k)) ]

let bench_objects () =
  let key = Rpki_crypto.Rsa.generate (drbg_rng "bench-objects") in
  let cert =
    Cert.self_signed ~key ~subject:"Bench" ~resources:(Resources.of_v4_strings [ "10.0.0.0/8" ])
      ~not_before:0 ~not_after:1000 ()
  in
  let encoded = Cert.encode cert in
  let roa =
    Roa.issue ~ca_key:key.Rpki_crypto.Rsa.private_ ~ca_subject:"Bench" ~serial:2
      ~rng:(drbg_rng "bench-roa") ~asid:65000
      ~v4_entries:[ Roa.entry ~max_len:24 (V4.p "10.1.0.0/20") ]
      ~not_before:0 ~not_after:1000 ()
  in
  Test.make_grouped ~name:"objects"
    [ Test.make ~name:"cert-encode" (Staged.stage (fun () -> Cert.encode cert));
      Test.make ~name:"cert-decode" (Staged.stage (fun () -> Cert.decode encoded));
      Test.make ~name:"cert-validate"
        (Staged.stage (fun () -> Validation.validate_cert ~now:10 ~parent:cert cert));
      Test.make ~name:"roa-validate"
        (Staged.stage (fun () -> Validation.validate_roa ~now:10 ~parent:cert roa)) ]

(* a VRP population of realistic size (the paper's projected deployment is
   tens of thousands of ROAs) *)
let synthetic_vrps n =
  let rng = Rpki_util.Rng.create 31 in
  List.init n (fun _ ->
      let addr = Rpki_util.Rng.bits rng 32 in
      let len = 12 + Rpki_util.Rng.int rng 13 in
      let prefix = V4.Prefix.make addr len in
      Vrp.make ~max_len:(min 32 (len + Rpki_util.Rng.int rng 4)) prefix (Rpki_util.Rng.int rng 65000))

let bench_origin_validation () =
  let vrps = synthetic_vrps 40_000 in
  let idx = Origin_validation.build vrps in
  let rng = Rpki_util.Rng.create 77 in
  let routes =
    Array.init 1024 (fun _ ->
        Route.make (V4.Prefix.make (Rpki_util.Rng.bits rng 32) (8 + Rpki_util.Rng.int rng 25))
          (Rpki_util.Rng.int rng 65000))
  in
  let i = ref 0 in
  let vrps_10k = synthetic_vrps 10_000 in
  Test.make_grouped ~name:"origin-validation"
    [ Test.make ~name:"build-index-10k" (Staged.stage (fun () -> Origin_validation.build vrps_10k));
      Test.make ~name:"classify-40k-index"
        (Staged.stage (fun () ->
             i := (!i + 1) land 1023;
             Origin_validation.classify idx routes.(!i))) ]

let bench_bgp () =
  let g = Rpki_bgp.Topo_gen.generate Rpki_bgp.Topo_gen.default_spec in
  let victim = List.hd g.Rpki_bgp.Topo_gen.stub_asns in
  let prefix = V4.p "63.174.16.0/20" in
  let idx = Origin_validation.build [ Vrp.make ~max_len:20 prefix victim ] in
  let anns = [ { Rpki_bgp.Propagation.prefix; origin = victim } ] in
  (* a data plane of one /16 per tier-1 plus the victim's /20 under a /24
     sub-prefix hijack: a cold build propagates every prefix, a rebuild
     from it with unchanged validity reuses every RIB *)
  let topo = g.Rpki_bgp.Topo_gen.topo in
  let policy_of _ = Rpki_bgp.Policy.Drop_invalid in
  let validity_of = Origin_validation.classify idx in
  let plane_anns =
    Rpki_bgp.Hijack.announcements ~victim_prefix:prefix ~victim_as:victim
      ~attacker_as:(List.nth g.Rpki_bgp.Topo_gen.stub_asns 1)
      (Rpki_bgp.Hijack.Subprefix_hijack (V4.p "63.174.23.0/24"))
    @ List.mapi
        (fun i origin -> { Rpki_bgp.Propagation.prefix = V4.Prefix.make ((20 + i) lsl 24) 16; origin })
        g.Rpki_bgp.Topo_gen.tier1_asns
  in
  let warm = Rpki_bgp.Data_plane.build ~topo ~policy_of ~validity_of plane_anns in
  (* the generated 2000-AS graph, one stub's prefix: what a cold data plane
     pays per prefix at world scale *)
  let big = Rpki_bgp.As_graph.generate { Rpki_bgp.As_graph.default_spec with ases = 2000 } in
  let big_topo = Rpki_bgp.As_graph.topology big in
  let big_origin =
    List.find (fun a -> Rpki_bgp.As_graph.role big a = Rpki_bgp.As_graph.Stub)
      (Rpki_bgp.As_graph.asns big)
  in
  let big_anns = [ { Rpki_bgp.Propagation.prefix; origin = big_origin } ] in
  Test.make_grouped ~name:"bgp"
    [ Test.make ~name:"propagate-124-as"
        (Staged.stage (fun () ->
             Rpki_bgp.Propagation.compute ~topo ~policy_of ~validity_of anns));
      Test.make ~name:"propagate-2000-as"
        (Staged.stage (fun () ->
             Rpki_bgp.Propagation.compute ~topo:big_topo ~policy_of
               ~validity_of:(fun _ -> Origin_validation.Valid) big_anns));
      Test.make ~name:"data-plane-build-cold"
        (Staged.stage (fun () -> Rpki_bgp.Data_plane.build ~topo ~policy_of ~validity_of plane_anns));
      Test.make ~name:"data-plane-rebuild-unchanged"
        (Staged.stage (fun () ->
             Rpki_bgp.Data_plane.build ~prev:warm ~topo ~policy_of ~validity_of plane_anns)) ]

let bench_attack () =
  let m = Rpki_repo.Model.build () in
  Test.make_grouped ~name:"attack"
    [ Test.make ~name:"plan-grandchild-whack"
        (Staged.stage (fun () ->
             Rpki_attack.Whack.plan_targeted ~manipulator:m.Rpki_repo.Model.sprint
               ~target_issuer:"Continental" ~target_filename:m.Rpki_repo.Model.roa_target20)) ]

(* A trust anchor's point with 40 ROAs, then refreshed: only its manifest
   and CRL changed.  Validating the refreshed listing afresh checks every
   object; given the results for the listing before the refresh, only the
   manifest and CRL are checked and the ROAs replayed.  The listings are
   made here, so no signing runs inside the timer. *)
let bench_point () =
  let open Rpki_repo in
  let ta =
    Authority.create_trust_anchor ~name:"bench-ta"
      ~resources:(Resources.of_v4_strings [ "30.0.0.0/8" ])
      ~uri:"rsync://bench-ta/repo" ~addr:(V4.addr_of_string_exn "198.51.100.1") ~host_asn:1
      ~now:0 ~universe:(Universe.create ()) ()
  in
  for i = 0 to 39 do
    ignore
      (Authority.issue_simple_roa ta ~asid:(64500 + i)
         ~prefix:(V4.Prefix.make ((30 lsl 24) lor (i lsl 16)) 16)
         ~now:0 ())
  done;
  let ca_cert = Authority.cert ta in
  let parent_fp = Rpki_crypto.Sha256.digest (Cert.encode ca_cert) in
  let validate ?prev listing =
    Point.validate ?prev ~now:1 ~ca_cert ~parent_fp
      ~snap_fp:(Pub_point.fingerprint_of_listing listing) listing
  in
  let _, before = validate (Pub_point.snapshot (Authority.pub ta)) in
  Authority.refresh ta ~now:1;
  let refreshed = Pub_point.snapshot (Authority.pub ta) in
  let outcome, _ = validate ~prev:before refreshed in
  Experiments.check
    (List.length outcome.Valcache.o_vrps = 40 && outcome.Valcache.o_issues = [])
    "the refreshed 40-ROA point revalidated to %d VRPs and %d issues"
    (List.length outcome.Valcache.o_vrps) (List.length outcome.Valcache.o_issues);
  [ Test.make ~name:"validate-point-40-roas" (Staged.stage (fun () -> validate refreshed));
    Test.make ~name:"revalidate-refreshed-point-40-roas"
      (Staged.stage (fun () -> validate ~prev:before refreshed)) ]

(* One CA's 100 ROAs, issued as one batch, which signs the CRL and
   manifest once, and one at a time, which signs them after every ROA.
   Both publish the same bytes.  Each run starts from a fresh trust anchor
   made from the same keys, so no key generation runs inside the timer;
   making it signs its certificate, a CRL and a manifest. *)
let bench_issuance () =
  let open Rpki_repo in
  let keys = Authority.make_keys ~name:"bench-ca" ~key_bits:Rpki_crypto.Rsa.default_bits in
  let fresh () =
    Authority.create_trust_anchor ~name:"bench-ca"
      ~resources:(Resources.of_v4_strings [ "30.0.0.0/8" ])
      ~uri:"rsync://bench-ca/repo" ~addr:(V4.addr_of_string_exn "198.51.100.2") ~host_asn:1
      ~now:0 ~universe:(Universe.create ()) ~keys ()
  in
  let specs =
    List.init 100 (fun i ->
        (64500 + i, [ Roa.entry (V4.Prefix.make ((30 lsl 24) lor (i lsl 16)) 16) ]))
  in
  let batch () =
    let ca = fresh () in
    ignore (Authority.issue_roas ca ~now:0 specs);
    ca
  in
  let one_at_a_time () =
    let ca = fresh () in
    List.iter
      (fun (asid, v4_entries) -> ignore (Authority.issue_roa ca ~asid ~v4_entries ~now:0 ()))
      specs;
    ca
  in
  let files ca = Pub_point.files (Authority.pub ca) in
  Experiments.check
    (files (batch ()) = files (one_at_a_time ()))
    "a batch of 100 ROAs published other bytes than issuing them one at a time";
  Test.make_grouped ~name:"authority"
    [ Test.make ~name:"issue-100-roas-batch" (Staged.stage batch);
      Test.make ~name:"issue-100-roas-one-at-a-time" (Staged.stage one_at_a_time) ]

let bench_rp () =
  let m = Rpki_repo.Model.build () in
  let rp = Rpki_repo.Model.relying_party m in
  Test.make_grouped ~name:"relying-party"
    (Test.make ~name:"full-sync-model"
       (Staged.stage (fun () ->
            Rpki_repo.Relying_party.sync rp ~now:1 ~universe:m.Rpki_repo.Model.universe ()))
    :: bench_point ())

let bench_rrdp () =
  let pp = Rpki_repo.Pub_point.create ~uri:"rsync://bench/repo" ~addr:0 ~host_asn:1 in
  for i = 0 to 199 do
    Rpki_repo.Pub_point.put pp ~filename:(Printf.sprintf "f%03d.roa" i) (String.make 256 (Char.chr (65 + (i mod 26))))
  done;
  let server = Rpki_repo.Rrdp.create pp in
  ignore (Rpki_repo.Rrdp.publish_now server);
  let i = ref 0 in
  Test.make_grouped ~name:"rrdp"
    [ Test.make ~name:"delta-cycle-200-files"
        (Staged.stage (fun () ->
             incr i;
             Rpki_repo.Pub_point.put pp ~filename:"f000.roa" (Printf.sprintf "v%d" !i);
             ignore (Rpki_repo.Rrdp.publish_now server);
             let client = Rpki_repo.Rrdp.create_client () in
             ignore (Rpki_repo.Rrdp.sync client server))) ]

(* [flush-512-sessions-churn-8] is roa-churn's RTR leg: each run publishes
   a serial that re-originates 8 of 1000 VRPs (alternately away and back)
   and flushes that delta to 512 sessions. *)
let bench_rtr () =
  let module Server = Rpki_rtr.Server in
  let vrps = Vrp.normalize (synthetic_vrps 1000) in
  let cache = Rpki_rtr.Session.create_cache () in
  Rpki_rtr.Session.publish cache vrps;
  let churned =
    List.mapi
      (fun i (v : Vrp.t) ->
        if i < 8 then Vrp.make ~max_len:v.Vrp.max_len v.Vrp.prefix (65000 + i) else v)
      vrps
  in
  let away = Vrp.diff_of ~before:vrps ~after:(Vrp.normalize churned) in
  let server = Server.create () in
  let _ = List.init 512 (fun _ -> Server.attach server) in
  Server.publish server vrps;
  ignore (Server.flush server);
  let flips = ref 0 in
  Test.make_grouped ~name:"rtr"
    [ Test.make ~name:"full-dump-1k-vrps"
        (Staged.stage (fun () ->
             let router = Rpki_rtr.Session.create_router () in
             Rpki_rtr.Session.synchronize router cache));
      Test.make ~name:"flush-512-sessions-churn-8"
        (Staged.stage (fun () ->
             incr flips;
             Server.publish_diff server (if !flips land 1 = 1 then away else Vrp.invert_diff away);
             Server.flush server)) ]

(* a log larger than any the closed-loop benchmark grows: roots and proofs
   read stored complete subtrees and hash only the ragged right edge, so
   each costs O(log n) node hashes at any size *)
let bench_transparency () =
  let module Merkle = Rpki_transparency.Merkle in
  let tree = Merkle.create () in
  for i = 0 to 4095 do
    ignore (Merkle.add tree (Printf.sprintf "leaf-%d" i))
  done;
  Test.make_grouped ~name:"transparency"
    [ Test.make ~name:"merkle-root-4096" (Staged.stage (fun () -> Merkle.root tree));
      Test.make ~name:"merkle-root-at-4095"
        (Staged.stage (fun () -> Merkle.root_at tree ~size:4095));
      Test.make ~name:"merkle-inclusion-4095"
        (Staged.stage (fun () -> Merkle.inclusion_proof tree ~index:1234 ~size:4095));
      Test.make ~name:"merkle-consistency-1000-4095"
        (Staged.stage (fun () -> Merkle.consistency_proof tree ~old_size:1000 ~size:4095)) ]

(* One gossip round over 32 vantages synced on the Section 6 model, on a
   fresh k:4 mesh each run: no receiver has a baseline, so every pull checks
   its peer's whole log, and the receivers of one log check the same
   proofs.  The logs do not change between runs, so every head is signed
   at the first run and served as kept from then on. *)
let bench_gossip () =
  let rig =
    Rpki_sim.Scenario.build
      { Rpki_sim.Scenario.default with monitors = 31; gossip_period = 1_000 }
  in
  let sim = rig.Rpki_sim.Scenario.sim in
  for now = 1 to 3 do
    ignore (Rpki_sim.Loop.step sim ~now)
  done;
  let vantages = Rpki_repo.Gossip.vantages (Option.get (Rpki_sim.Loop.gossip_mesh sim)) in
  (* the same on a second rig, one k:4 mesh kept across runs, after every
     log grows by one record: every head needs a fresh signature, so each
     run signs and checks 32 heads, and each pull carries a one-record
     delta *)
  let grown =
    let rig =
      Rpki_sim.Scenario.build
        { Rpki_sim.Scenario.default with monitors = 31; gossip_period = 1_000 }
    in
    let sim = rig.Rpki_sim.Scenario.sim in
    for now = 1 to 3 do
      ignore (Rpki_sim.Loop.step sim ~now)
    done;
    let g = Option.get (Rpki_sim.Loop.gossip_mesh sim) in
    let vantages = Rpki_repo.Gossip.vantages g in
    let g = Rpki_repo.Gossip.create ~overlay:(Rpki_repo.Gossip.Overlay.K_regular 4) vantages in
    ignore (Rpki_repo.Gossip.round g ~now:4);
    let now = ref 4 in
    fun () ->
      incr now;
      List.iter
        (fun v ->
          ignore
            (Rpki_transparency.Log.append
               (Rpki_repo.Relying_party.transparency_log v.Rpki_repo.Gossip.v_rp)
               { Rpki_transparency.Log.ob_uri = "rsync://bench.example/grown/";
                 ob_serial = !now; ob_manifest_hash = ""; ob_vrp_hash = "";
                 ob_snapshot_fp = ""; ob_at = !now }))
        vantages;
      Rpki_repo.Gossip.round g ~now:!now
  in
  Test.make_grouped ~name:"gossip"
    [ Test.make ~name:"round-32-vantages-fresh"
        (Staged.stage (fun () ->
             let g =
               Rpki_repo.Gossip.create ~overlay:(Rpki_repo.Gossip.Overlay.K_regular 4) vantages
             in
             Rpki_repo.Gossip.round g ~now:4));
      Test.make ~name:"round-32-vantages-grown" (Staged.stage grown) ]

(* Persistence of one vantage holding 307 VRPs: the Section 6 model plus
   one ARIN ROA of 292 /24s and seven more /24s at ETB, whose point then
   carries 8 VRPs.  Black-holing ETB's point (no stale copy, no mirror or
   RRDP) moves those 8 VRPs out of the set and back; the point serves the
   same state each time it returns, so the log and its signed head never
   change.  Each cell saves to its own store, so each keeps its own mark. *)
let bench_persist () =
  let open Rpki_repo in
  let module Store = Rpki_persist.Store in
  let m = Model.build () in
  let slash24 ~b ~c = V4.Prefix.make ((63 lsl 24) lor (b lsl 16) lor (c lsl 8)) 24 in
  ignore
    (Authority.issue_roa m.Model.arin ~asid:64500 ~now:0
       ~v4_entries:
         (List.init 292 (fun i -> Roa.entry (slash24 ~b:(200 + (i / 256)) ~c:(i mod 256))))
       ());
  ignore
    (Authority.issue_roa m.Model.etb ~asid:Model.as_etb ~now:0
       ~v4_entries:(List.init 7 (fun i -> Roa.entry (slash24 ~b:170 ~c:(i + 1))))
       ());
  let policy =
    { Relying_party.default_policy with Relying_party.use_mirrors = false; use_rrdp = false }
  in
  let etb = Pub_point.uri (Authority.pub m.Model.etb) in
  (* a vantage and the sync that flips ETB's point dark or back *)
  let vantage () =
    let rp = Model.relying_party ~use_stale:false m in
    let transport = Transport.instant () in
    let dark = ref false in
    let flip () =
      dark := not !dark;
      Transport.set_fault transport ~uri:etb
        (if !dark then Transport.Unreachable else Transport.Healthy);
      ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport ~policy ())
    in
    flip ();
    flip ();
    let n = List.length (Relying_party.vrps rp) in
    Experiments.check (n = 307) "the persisted vantage holds %d VRPs, not 307" n;
    (rp, flip)
  in
  let based rp name =
    let store = Store.create (Rpki_persist.Disk.create ()) ~name in
    ignore (Relying_party.save rp ~now:1 store);
    store
  in
  let still, _ = vantage () in
  let still_store = based still "unchanged" in
  let moving, flip = vantage () in
  let moving_store = based moving "diff" in
  let _, flip_only = vantage () in
  (* a base and 32 segments, every other one carrying an 8-VRP diff *)
  let writer, flip_writer = vantage () in
  let chain = based writer "chain" in
  let log_size () = Rpki_transparency.Log.size (Relying_party.transparency_log writer) in
  let size = log_size () in
  for i = 1 to 32 do
    if i mod 2 = 0 then flip_writer ();
    ignore (Relying_party.save writer ~now:1 chain)
  done;
  Experiments.check
    (Store.segment_count chain = 32 && log_size () = size)
    "the chain holds %d segments and a log of %d, not 32 and %d" (Store.segment_count chain)
    (log_size ()) size;
  (* one reader restores every run; its first restore makes its key *)
  let reader = Model.relying_party m in
  (match Relying_party.restore reader chain with
  | Relying_party.Recovered _ -> ()
  | r -> Experiments.check false "%s" (Relying_party.recovery_to_string r));
  Test.make_grouped ~name:"persist"
    [ Test.make ~name:"save-segment-unchanged-307"
        (Staged.stage (fun () -> Relying_party.save still ~now:1 still_store));
      (* each run pays the sync that moves the 8 VRPs: [sync-flip-8] times
         that sync alone *)
      Test.make ~name:"sync-flip-8-save-segment"
        (Staged.stage (fun () ->
             flip ();
             Relying_party.save moving ~now:1 moving_store));
      Test.make ~name:"sync-flip-8" (Staged.stage flip_only);
      Test.make ~name:"restore-32-segments"
        (Staged.stage (fun () -> Relying_party.restore reader chain)) ]

let run ~quick =
  let tests =
    Test.make_grouped ~name:"rpki-mra"
      [ bench_crypto (); bench_objects (); bench_origin_validation (); bench_bgp ();
        bench_attack (); bench_issuance (); bench_rp (); bench_rtr (); bench_rrdp ();
        bench_transparency (); bench_gossip (); bench_persist () ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then
      (* smoke mode: one short pass per benchmark, numbers are rough *)
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e /. float (operations_per_run name)
          | _ -> nan
        in
        (name, estimate) :: acc)
      clock []
  in
  let t =
    Rpki_util.Table.create
      ~aligns:[ Rpki_util.Table.Left; Rpki_util.Table.Right ]
      [ "benchmark"; "time/run" ]
  in
  let humanize ns =
    if Float.is_nan ns then "n/a"
    else if ns < 1e3 then Printf.sprintf "%.1f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter (fun (name, est) -> Rpki_util.Table.add_row t [ name; humanize est ]) sorted;
  Rpki_util.Table.print t;
  let open Json in
  let row (name, est) = Object [ ("benchmark", String name); ("ns_per_run", Fixed (1, est)) ] in
  Some
    (Object
       [ ("experiment", String "perf"); ("quick", Bool quick); ("benchmarks", list row sorted) ])
