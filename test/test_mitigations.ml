(* Tests for the mitigation features implementing the paper's open problems:
   key rollover (RFC 6489), mirrored publication points
   (draft-ietf-sidr-multiple-publication-points, the paper's ref [16]) and
   the Suspenders-style grace window (ref [25]). *)

open Rpki_core
open Rpki_repo
open Rpki_sim
open Rpki_ip

let sync (m : Model.t) rp ~now = Relying_party.sync rp ~now ~universe:m.Model.universe ()

(* --- RFC 6489 key rollover --- *)

let test_rollover_child () =
  let m = Model.build () in
  let rp = Model.relying_party m in
  let old_key = (Authority.key m.Model.sprint).Rpki_crypto.Rsa.public in
  Authority.roll_key m.Model.sprint ~now:2;
  Alcotest.(check bool) "key changed" false
    (Rpki_crypto.Rsa.equal_public old_key (Authority.key m.Model.sprint).Rpki_crypto.Rsa.public);
  (* the whole subtree must still validate: Sprint's children were re-signed *)
  let r = sync m rp ~now:3 in
  Alcotest.(check int) "all eight VRPs survive" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check int) "no issues" 0 (List.length r.Relying_party.issues)

let test_rollover_trust_anchor () =
  let m = Model.build () in
  Authority.roll_key m.Model.arin ~now:2;
  (* the old TAL no longer matches: relying parties must re-provision *)
  let rp_stale = Model.relying_party m in
  (* the stale RP was created after rollover, so its TAL is current... build
     one with the OLD tal instead *)
  ignore rp_stale;
  let fresh_rp =
    Relying_party.create ~name:"fresh" ~asn:7018
      ~tals:[ Relying_party.tal_of_authority m.Model.arin ]
      ()
  in
  let r = sync m fresh_rp ~now:3 in
  Alcotest.(check int) "fresh TAL validates everything" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check int) "no issues" 0 (List.length r.Relying_party.issues)

let test_rollover_is_benign_to_monitor () =
  let m = Model.build () in
  let before = Rpki_monitor.Monitor.take ~now:1 m.Model.universe in
  Authority.roll_key m.Model.etb ~now:2;
  let after = Rpki_monitor.Monitor.take ~now:2 m.Model.universe in
  let alerts = Rpki_monitor.Monitor.diff ~before ~after in
  (* resources never changed: no shrink alarms, no stealth-removal alarms *)
  Alcotest.(check int) "no alarms on rollover" 0
    (List.length (Rpki_monitor.Monitor.alarms alerts))

let test_rollover_revokes_old_serial () =
  let m = Model.build () in
  let old_serial = (Authority.cert m.Model.etb).Cert.serial in
  Authority.roll_key m.Model.etb ~now:2;
  Alcotest.(check bool) "old serial revoked by Sprint" true
    (List.mem old_serial (Authority.revoked m.Model.sprint))

(* --- mirrored publication points --- *)

let test_mirror_serves_when_primary_down () =
  let m = Model.build () in
  let primary = (Authority.pub m.Model.continental) in
  let mirror =
    Pub_point.create ~uri:"rsync://mirror.example/continental"
      ~addr:(V4.addr_of_string_exn "63.161.200.1") ~host_asn:Model.as_sprint
  in
  Universe.add_mirror m.Model.universe ~of_uri:(Pub_point.uri primary) mirror;
  Universe.refresh_mirrors m.Model.universe;
  let rp = Model.relying_party m in
  let unreachable (pp : Pub_point.t) = (Pub_point.uri pp) <> (Pub_point.uri primary) in
  let r =
    Relying_party.sync rp ~now:1 ~universe:m.Model.universe
      ~transport:(Transport.of_oracle unreachable)
      ~policy:{ Relying_party.default_policy with Relying_party.use_stale = false } ()
  in
  Alcotest.(check int) "all VRPs via mirror" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check bool) "mirror fetch recorded" true
    (List.exists (fun (_, st) -> st = Relying_party.Fetched_mirror) r.Relying_party.fetches)

let test_mirror_lags_until_refreshed () =
  let m = Model.build () in
  let primary = (Authority.pub m.Model.continental) in
  let mirror =
    Pub_point.create ~uri:"rsync://mirror.example/continental"
      ~addr:(V4.addr_of_string_exn "63.161.200.1") ~host_asn:Model.as_sprint
  in
  Universe.add_mirror m.Model.universe ~of_uri:(Pub_point.uri primary) mirror;
  (* not refreshed: the mirror is empty *)
  Alcotest.(check int) "empty before refresh" 0 (List.length (Pub_point.files mirror));
  Universe.refresh_mirrors m.Model.universe;
  Alcotest.(check int) "populated after refresh"
    (List.length (Pub_point.files primary))
    (List.length (Pub_point.files mirror))

let test_mirror_requires_primary () =
  let m = Model.build () in
  let mirror =
    Pub_point.create ~uri:"rsync://mirror.example/x" ~addr:0 ~host_asn:1
  in
  Alcotest.(check bool) "unknown primary rejected" true
    (try
       Universe.add_mirror m.Model.universe ~of_uri:"rsync://nowhere/repo" mirror;
       false
     with Invalid_argument _ -> true)

let test_mirror_breaks_se7 () =
  (* the Section 6 circularity dissolves when the repository is also served
     from address space whose route does not depend on its own objects *)
  let probe hist t =
    List.assoc "continental-repo" (List.nth hist (t - 1)).Loop.probe_results
  in
  let _, plain = Scenario.run_section6 Scenario.section6 in
  let _, mirrored =
    Scenario.run_section6
      { Scenario.section6 with
        source = Scenario.Section6 { Scenario.canned with mirrored = true } }
  in
  Alcotest.(check bool) "plain: stuck at t7" false (probe plain 7);
  Alcotest.(check bool) "mirrored: down during the fault" false (probe mirrored 3);
  Alcotest.(check bool) "mirrored: recovered at t4" true (probe mirrored 4);
  Alcotest.(check bool) "mirrored: healthy at t7" true (probe mirrored 7)

(* --- Suspenders-style grace window --- *)

let test_grace_masks_missing_roa () =
  let m = Model.build () in
  let rp = Model.relying_party ~grace:5 m in
  let _ = sync m rp ~now:1 in
  let _ = Fault.delete_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target22 in
  let r = sync m rp ~now:2 in
  (* within the window the disappeared VRP is held: Side Effect 6 masked *)
  Alcotest.(check int) "still eight VRPs" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check bool) "grace hold reported" true
    (List.exists
       (fun (i : Relying_party.issue) ->
         String.length i.Relying_party.reason >= 5 && String.sub i.Relying_party.reason 0 5 = "grace")
       r.Relying_party.issues);
  (* past the window the loss becomes real *)
  let r2 = sync m rp ~now:8 in
  Alcotest.(check int) "seven after expiry" 7 (List.length r2.Relying_party.vrps)

let test_grace_delays_legitimate_revocation () =
  (* the cost of the fail-safe: a legitimately revoked ROA lingers *)
  let m = Model.build () in
  let rp = Model.relying_party ~grace:5 m in
  let _ = sync m rp ~now:1 in
  Authority.revoke_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:2;
  let r = sync m rp ~now:2 in
  Alcotest.(check int) "revoked VRP still held" 8 (List.length r.Relying_party.vrps);
  let r2 = sync m rp ~now:8 in
  Alcotest.(check int) "gone after the window" 7 (List.length r2.Relying_party.vrps)

let test_grace_prevents_se7 () =
  let probe hist t =
    List.assoc "continental-repo" (List.nth hist (t - 1)).Loop.probe_results
  in
  let _, hist = Scenario.run_section6 { Scenario.section6 with grace = 10 } in
  (* the held VRP keeps the repository route valid through the fault, so the
     RP re-fetches the repaired ROA before the hold expires *)
  List.iter (fun t -> Alcotest.(check bool) "up" true (probe hist t)) [ 1; 3; 4; 7 ]

let test_grace_flush_forgets () =
  let m = Model.build () in
  let rp = Model.relying_party ~grace:5 m in
  let _ = sync m rp ~now:1 in
  Relying_party.flush_cache rp;
  let _ = Fault.delete_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target22 in
  let r = sync m rp ~now:2 in
  Alcotest.(check int) "no memory after flush" 7 (List.length r.Relying_party.vrps)

let () =
  Alcotest.run "mitigations"
    [ ( "key-rollover",
        [ Alcotest.test_case "child rollover preserves validity" `Quick test_rollover_child;
          Alcotest.test_case "trust-anchor rollover" `Quick test_rollover_trust_anchor;
          Alcotest.test_case "benign to the monitor" `Quick test_rollover_is_benign_to_monitor;
          Alcotest.test_case "old serial revoked" `Quick test_rollover_revokes_old_serial ] );
      ( "mirrors",
        [ Alcotest.test_case "serves when primary down" `Quick test_mirror_serves_when_primary_down;
          Alcotest.test_case "lags until refreshed" `Quick test_mirror_lags_until_refreshed;
          Alcotest.test_case "requires a primary" `Quick test_mirror_requires_primary;
          Alcotest.test_case "breaks the SE7 loop" `Quick test_mirror_breaks_se7 ] );
      ( "grace",
        [ Alcotest.test_case "masks SE6" `Quick test_grace_masks_missing_roa;
          Alcotest.test_case "delays legitimate revocation" `Quick
            test_grace_delays_legitimate_revocation;
          Alcotest.test_case "prevents SE7" `Quick test_grace_prevents_se7;
          Alcotest.test_case "flush forgets" `Quick test_grace_flush_forgets ] ) ]
