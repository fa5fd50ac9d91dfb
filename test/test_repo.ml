(* Tests for publication points, authorities, the relying party and fault
   injection — including the paper's Side Effect 6 semantics. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

(* One shared model for read-only tests (keygen is the expensive part). *)
let shared = lazy (Model.build ())

let fresh_model () = Model.build ()

let sync ?reachable ?policy ?(now = 1) (m : Model.t) rp =
  let transport = Option.map Transport.of_oracle reachable in
  Relying_party.sync rp ~now ~universe:m.Model.universe ?transport ?policy ()

let sync_indexed ?(now = 1) (m : Model.t) rp =
  let r = Relying_party.sync rp ~now ~universe:m.Model.universe () in
  (r, r.Relying_party.index)

let vrp_strings (r : Relying_party.sync_result) =
  List.map Vrp.to_string r.Relying_party.vrps

(* --- pub point mechanics --- *)

let test_pub_point () =
  let pp = Pub_point.create ~uri:"rsync://x/repo" ~addr:0 ~host_asn:1 in
  Pub_point.put pp ~filename:"b.roa" "bytes-b";
  Pub_point.put pp ~filename:"a.cer" "bytes-a";
  Alcotest.(check (list string)) "sorted" [ "a.cer"; "b.roa" ] (Pub_point.filenames pp);
  Pub_point.put pp ~filename:"a.cer" "bytes-a2";
  Alcotest.(check (option string)) "overwrite" (Some "bytes-a2") (Pub_point.get pp ~filename:"a.cer");
  Alcotest.(check int) "no dup" 2 (List.length (Pub_point.files pp));
  Pub_point.delete pp ~filename:"a.cer";
  Alcotest.(check bool) "deleted" false (Pub_point.mem pp ~filename:"a.cer");
  Alcotest.(check bool) "corrupt missing" false (Pub_point.corrupt pp ~filename:"a.cer" ~byte_index:0);
  Alcotest.(check bool) "corrupt present" true (Pub_point.corrupt pp ~filename:"b.roa" ~byte_index:0);
  Alcotest.(check bool) "corrupted differs" true
    (Pub_point.get pp ~filename:"b.roa" <> Some "bytes-b")

let test_universe () =
  let u = Universe.create () in
  let pp = Pub_point.create ~uri:"rsync://x/repo" ~addr:0 ~host_asn:1 in
  Universe.add u pp;
  Alcotest.(check bool) "found" true (Universe.find u "rsync://x/repo" <> None);
  Alcotest.(check bool) "missing" true (Universe.find u "rsync://y/repo" = None);
  Alcotest.check_raises "duplicate" (Invalid_argument "Universe.add: duplicate uri rsync://x/repo")
    (fun () -> Universe.add u (Pub_point.create ~uri:"rsync://x/repo" ~addr:0 ~host_asn:1))

(* --- the model RPKI end to end --- *)

let test_model_sync () =
  let m = Lazy.force shared in
  let rp = Model.relying_party m in
  let r = sync m rp in
  Alcotest.(check int) "eight VRPs" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check int) "no issues" 0 (List.length r.Relying_party.issues);
  Alcotest.(check int) "four CAs" 4 (List.length r.Relying_party.cas_validated);
  Alcotest.(check bool) "sprint vrp present" true
    (List.mem "(63.161.0.0/16-24, AS1239)" (vrp_strings r))

let test_model_fig5_left () =
  let m = Lazy.force shared in
  let rp = Model.relying_party m in
  let _, idx = sync_indexed m rp in
  let st p o = Origin_validation.classify idx (Route.make (V4.p p) o) in
  (* the two statuses the paper states explicitly *)
  Alcotest.(check string) "/12 unknown" "unknown"
    (Origin_validation.state_to_string (st "63.160.0.0/12" 1239));
  Alcotest.(check string) "63.174.17.0/24 invalid" "invalid"
    (Origin_validation.state_to_string (st "63.174.17.0/24" 17054))

let test_model_deterministic () =
  let a = Model.build () and b = Model.build () in
  let ra = sync a (Model.relying_party a) and rb = sync b (Model.relying_party b) in
  Alcotest.(check (list string)) "same vrps" (vrp_strings ra) (vrp_strings rb)

(* --- authority operations --- *)

let test_issue_and_renew () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let filename, _ =
    Authority.issue_simple_roa m.Model.etb ~asid:65001 ~prefix:(V4.p "63.170.128.0/20") ~now:1 ()
  in
  let r = sync m rp in
  Alcotest.(check int) "nine VRPs" 9 (List.length r.Relying_party.vrps);
  let _ = Authority.renew_roa m.Model.etb ~filename ~now:2 in
  let r2 = sync ~now:2 m rp in
  Alcotest.(check int) "still nine" 9 (List.length r2.Relying_party.vrps);
  Alcotest.(check int) "no issues" 0 (List.length r2.Relying_party.issues)

let test_roa_expiry () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let late = Rtime.add 1 (Rtime.year + 1) in
  (* nothing was refreshed for a year: everything expires *)
  let r = sync ~now:late m rp in
  Alcotest.(check int) "no VRPs" 0 (List.length r.Relying_party.vrps);
  Alcotest.(check bool) "issues reported" true (r.Relying_party.issues <> [])

let test_refresh_keeps_current () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let mid = Rtime.add 1 (Rtime.day * 10) in
  Authority.refresh m.Model.arin ~now:mid;
  Authority.refresh m.Model.sprint ~now:mid;
  Authority.refresh m.Model.etb ~now:mid;
  Authority.refresh m.Model.continental ~now:mid;
  let r = sync ~now:(Rtime.add mid Rtime.day) m rp in
  Alcotest.(check int) "all VRPs" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check int) "no issues" 0 (List.length r.Relying_party.issues)

let test_stale_manifest_detected () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  (* past the refresh window but before cert expiry *)
  let late = Rtime.add 1 (Rtime.day * 20) in
  let r = sync ~now:late m rp in
  Alcotest.(check bool) "stale manifests reported" true
    (List.exists
       (fun (i : Relying_party.issue) ->
         i.Relying_party.filename <> None
         && String.length i.Relying_party.reason >= 5
         && String.sub i.Relying_party.reason 0 5 = "stale")
       r.Relying_party.issues)

(* --- revocation --- *)

let test_revoke_roa () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  Authority.revoke_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:1;
  let r = sync m rp in
  Alcotest.(check int) "seven VRPs" 7 (List.length r.Relying_party.vrps);
  Alcotest.(check bool) "gone" true
    (not (List.mem "(63.174.25.0/24, AS17054)" (vrp_strings r)))

let test_revoke_child_subtree () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  Authority.revoke_child m.Model.sprint m.Model.continental ~now:1;
  let r = sync m rp in
  (* all five Continental ROAs disappear *)
  Alcotest.(check int) "three VRPs left" 3 (List.length r.Relying_party.vrps)

let test_stealth_delete_no_crl () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  Authority.stealth_delete_roa m.Model.continental ~filename:m.Model.roa_cb_26 ~now:1;
  let r = sync m rp in
  Alcotest.(check int) "seven VRPs" 7 (List.length r.Relying_party.vrps);
  (* stealth: zero validation issues — the repository looks self-consistent *)
  Alcotest.(check int) "no issues" 0 (List.length r.Relying_party.issues)

(* --- Side Effect 6: missing/corrupt objects --- *)

let test_se6_missing_roa_invalid_not_unknown () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let fault =
    Fault.delete_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target22
  in
  Alcotest.(check bool) "fault applied" true (fault <> None);
  let r, idx = sync_indexed m rp in
  (* the manifest flags the hole... *)
  Alcotest.(check bool) "manifest flags missing file" true
    (List.exists
       (fun (i : Relying_party.issue) -> i.Relying_party.reason = "listed on manifest but missing")
       r.Relying_party.issues);
  (* ...and the corresponding route is invalid, NOT unknown, because of the
     covering /20 ROA — the paper's exact example *)
  Alcotest.(check string) "invalid" "invalid"
    (Origin_validation.state_to_string
       (Origin_validation.classify idx (Route.make (V4.p "63.174.16.0/22") 7341)));
  (* repair restores validity *)
  Option.iter Fault.repair fault;
  let _, idx2 = sync_indexed m rp in
  Alcotest.(check string) "valid again" "valid"
    (Origin_validation.state_to_string
       (Origin_validation.classify idx2 (Route.make (V4.p "63.174.16.0/22") 7341)))

let test_se6_corrupt_roa () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let fault =
    Fault.corrupt_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target22 ()
  in
  Alcotest.(check bool) "fault applied" true (fault <> None);
  let r, idx = sync_indexed m rp in
  Alcotest.(check bool) "hash mismatch reported" true
    (List.exists
       (fun (i : Relying_party.issue) -> i.Relying_party.reason = "hash mismatch with manifest")
       r.Relying_party.issues);
  (* the /22's VRP is lost but the covering /20 ROA survives: invalid *)
  Alcotest.(check string) "vrp lost => covering makes route invalid" "invalid"
    (Origin_validation.state_to_string
       (Origin_validation.classify idx (Route.make (V4.p "63.174.16.0/22") 7341)));
  (* by contrast, corrupting the /20 ROA leaves its route merely unknown:
     nothing else covers it *)
  Option.iter Fault.repair fault;
  let _ = Fault.corrupt_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target20 () in
  let _, idx2 = sync_indexed m rp in
  Alcotest.(check string) "no covering => unknown" "unknown"
    (Origin_validation.state_to_string
       (Origin_validation.classify idx2 (Route.make (V4.p "63.174.16.0/20") 17054)))

let test_wipe_and_repair () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let fault = Fault.wipe (Authority.pub m.Model.sprint) in
  let r = sync m rp in
  (* Sprint's point is empty: its ROAs and both child certs are gone *)
  Alcotest.(check int) "nothing under sprint" 0 (List.length r.Relying_party.vrps);
  Fault.repair fault;
  let r2 = sync m rp in
  Alcotest.(check int) "all back" 8 (List.length r2.Relying_party.vrps)

(* --- reachability and caching --- *)

let test_unreachable_uses_stale_cache () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let _ = sync m rp in
  (* now continental becomes unreachable; stale cache keeps its VRPs *)
  let unreachable (pp : Pub_point.t) = (Pub_point.uri pp) <> "rsync://rpki.continental.net/repo" in
  let r = sync ~reachable:unreachable ~now:2 m rp in
  Alcotest.(check int) "still eight via cache" 8 (List.length r.Relying_party.vrps);
  Alcotest.(check bool) "stale fetch recorded" true
    (List.exists
       (fun (_, st) -> st = Relying_party.Stale_cache)
       r.Relying_party.fetches)

let test_unreachable_without_cache () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let policy = { Relying_party.default_policy with Relying_party.use_stale = false } in
  let _ = sync ~policy m rp in
  let unreachable (pp : Pub_point.t) = (Pub_point.uri pp) <> "rsync://rpki.continental.net/repo" in
  let r = sync ~reachable:unreachable ~policy ~now:2 m rp in
  Alcotest.(check int) "continental VRPs lost" 3 (List.length r.Relying_party.vrps)

let test_flush_cache () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  let _ = sync m rp in
  Relying_party.flush_cache rp;
  let unreachable (_ : Pub_point.t) = false in
  let r = sync ~reachable:unreachable ~now:2 m rp in
  Alcotest.(check int) "nothing without cache" 0 (List.length r.Relying_party.vrps)

(* --- make-before-break primitive --- *)

let test_certify_key () =
  let m = fresh_model () in
  let rp = Model.relying_party m in
  (* ARIN certifies Continental directly (as a manipulator would) *)
  let _, cert =
    Authority.certify_key m.Model.arin ~subject:"Continental"
      ~public_key:(Authority.key m.Model.continental).Rpki_crypto.Rsa.public
      ~resources:(Authority.cert m.Model.continental).Cert.resources
      ~repo_uri:(Pub_point.uri (Authority.pub m.Model.continental)) ~manifest_uri:"Continental.mft"
      ~now:1
  in
  Alcotest.(check string) "issuer" "ARIN" cert.Cert.issuer;
  (* even if Sprint revokes Continental entirely, the ARIN-issued cert keeps
     the subtree alive *)
  Authority.revoke_child m.Model.sprint m.Model.continental ~now:1;
  let r = sync m rp in
  Alcotest.(check int) "continental survives via reissue" 8 (List.length r.Relying_party.vrps)

(* --- keys made ahead of time --- *)

let test_make_keys_on_domains () =
  let names = Array.init 8 (Printf.sprintf "K%d") in
  let make name = Authority.make_keys ~name ~key_bits:Rpki_crypto.Rsa.default_bits in
  Alcotest.(check bool) "4 Domains = one" true
    (Array.map make names = Rpki_util.Par.map ~domains:4 make names)

let test_keys_change_nothing () =
  let made name = Authority.make_keys ~name ~key_bits:Rpki_crypto.Rsa.default_bits in
  let build ?ta_keys ?child_keys () =
    let universe = Universe.create () in
    let ta =
      Authority.create_trust_anchor ~name:"TA" ~resources:(Resources.of_v4_strings [ "20.0.0.0/8" ])
        ~uri:"rsync://ta/repo" ~addr:1 ~host_asn:1 ~now:0 ~universe ?keys:ta_keys ()
    in
    let child =
      Authority.create_child ta ~name:"Child"
        ~resources:(Resources.of_v4_strings [ "20.1.0.0/16" ])
        ~uri:"rsync://child/repo" ~addr:2 ~host_asn:2 ~now:0 ~universe ?keys:child_keys ()
    in
    (* the ROA's EE certificate draws from the authority's stream *)
    ignore
      (Authority.issue_simple_roa child ~asid:2
         ~prefix:(V4.Prefix.of_string_exn "20.1.0.0/24") ~now:0 ());
    List.concat_map (fun a -> Pub_point.files (Authority.pub a)) [ ta; child ]
  in
  Alcotest.(check (list (pair string string)))
    "same bytes" (build ())
    (build ~ta_keys:(made "TA") ~child_keys:(made "Child") ());
  Alcotest.check_raises "keys for another name"
    (Invalid_argument "Authority: keys made for Other (512 bits), not Child (512 bits)") (fun () ->
      ignore (build ~child_keys:(made "Other") ()));
  Alcotest.check_raises "keys of another width"
    (Invalid_argument "Authority: keys made for Child (520 bits), not Child (512 bits)") (fun () ->
      ignore (build ~child_keys:(Authority.make_keys ~name:"Child" ~key_bits:520) ()))

(* --- batched issuance publishes the bytes of one operation at a time ---

   A random history on a CA under a trust anchor (ROAs issued, revoked,
   renewed and expired, refreshes, skipped and regressed manifest numbers,
   a child CA with a history of its own), then a batch.  Both sides replay
   the same history from the same keys, so any difference is the batch's. *)

type step =
  | Issue of int
  | Revoke of int (* the [k mod n]-th current ROA *)
  | Renew of int
  | Expire of int
  | Refresh
  | Skip of int
  | Regress of int
  | Child (* create the child CA, once *)

let history_keys =
  lazy
    (List.map
       (fun name -> (name, Authority.make_keys ~name ~key_bits:Rpki_crypto.Rsa.default_bits))
       [ "TA"; "CA"; "Sub" ])

let roa_prefix k = V4.Prefix.make ((20 lsl 24) lor ((k land 0xffff) lsl 8)) 24

(* Replay a history; each step runs at its own tick, on the child CA when
   it is flagged and exists.  Returns the CA, the child if made, and the
   next tick. *)
let replay history =
  let keys name = List.assoc name (Lazy.force history_keys) in
  let universe = Universe.create () in
  let res = Resources.of_v4_strings [ "20.0.0.0/8" ] in
  let ta =
    Authority.create_trust_anchor ~name:"TA" ~resources:res ~uri:"rsync://ta/repo" ~addr:1
      ~host_asn:1 ~now:0 ~universe ~keys:(keys "TA") ()
  in
  let ca =
    Authority.create_child ta ~name:"CA" ~resources:res ~uri:"rsync://ca/repo" ~addr:2
      ~host_asn:2 ~now:0 ~universe ~keys:(keys "CA") ()
  in
  let sub = ref None in
  List.iteri
    (fun i (on_sub, step) ->
      let now = i + 1 in
      let a = match !sub with Some s when on_sub -> s | _ -> ca in
      let nth k f =
        match Authority.roas a with
        | [] -> ()
        | roas -> f (fst (List.nth roas (k mod List.length roas)))
      in
      match step with
      | Issue k ->
        ignore (Authority.issue_simple_roa a ~asid:(64500 + k) ~prefix:(roa_prefix k) ~now ())
      | Revoke k -> nth k (fun filename -> Authority.revoke_roa a ~filename ~now)
      | Renew k -> nth k (fun filename -> ignore (Authority.renew_roa a ~filename ~now))
      | Expire k -> nth k (fun filename -> Authority.expire_roa a ~filename ~now)
      | Refresh -> Authority.refresh a ~now
      | Skip gap -> Authority.skip_manifest_numbers a ~gap ~now
      | Regress by -> Authority.regress_manifest_number a ~by ~now
      | Child ->
        if !sub = None then
          sub :=
            Some
              (Authority.create_child ca ~name:"Sub" ~resources:res ~uri:"rsync://sub/repo"
                 ~addr:3 ~host_asn:3 ~now ~universe ~keys:(keys "Sub") ()))
    history;
  (ca, !sub, List.length history + 1)

(* Every file at the point, and every ROA the authority keeps, as bytes. *)
let published a =
  ( Pub_point.files (Authority.pub a),
    List.map (fun (f, r) -> (f, Roa.encode r)) (Authority.roas a) )

let history_gen =
  QCheck.Gen.(
    list_size (int_range 0 25)
      (pair bool
         (frequency
            [ (4, map (fun k -> Issue k) nat); (2, map (fun k -> Revoke k) nat);
              (2, map (fun k -> Renew k) nat); (1, map (fun k -> Expire k) nat);
              (1, return Refresh); (1, map (fun g -> Skip g) (int_range 0 5));
              (1, map (fun b -> Regress b) (int_range 0 5)); (1, return Child) ])))

let print_history h =
  String.concat " "
    (List.map
       (fun (on_sub, step) ->
         (if on_sub then "sub:" else "")
         ^
         match step with
         | Issue k -> Printf.sprintf "issue %d" k
         | Revoke k -> Printf.sprintf "revoke %d" k
         | Renew k -> Printf.sprintf "renew %d" k
         | Expire k -> Printf.sprintf "expire %d" k
         | Refresh -> "refresh"
         | Skip g -> Printf.sprintf "skip %d" g
         | Regress b -> Printf.sprintf "regress %d" b
         | Child -> "child")
       h)

(* The two sides must agree now, and after one further ROA and refresh,
   which read the counters both left behind. *)
let check_same ~now a b =
  if published a <> published b then QCheck.Test.fail_report "published bytes differ";
  List.iter
    (fun x ->
      ignore
        (Authority.issue_simple_roa x ~asid:64499 ~prefix:(roa_prefix 4095) ~now:(now + 1) ());
      Authority.refresh x ~now:(now + 2))
    [ a; b ];
  if published a <> published b then
    QCheck.Test.fail_report "bytes differ after one more ROA and a refresh"

let prop_batch_issue =
  let gen =
    QCheck.Gen.(
      pair history_gen
        (list_size (int_range 1 20)
           (pair nat (list_size (int_range 1 2) (pair (int_range 0 4094) bool)))))
  in
  let print (h, specs) =
    Printf.sprintf "history [%s]; batch of %d" (print_history h) (List.length specs)
  in
  QCheck.Test.make ~name:"a batch of ROAs publishes the bytes of one at a time" ~count:100
    (QCheck.make ~print gen) (fun (history, specs) ->
      let specs =
        List.map
          (fun (asid, entries) ->
            ( asid,
              List.map
                (fun (k, loose) ->
                  Roa.entry ?max_len:(if loose then Some 28 else None) (roa_prefix k))
                entries ))
          specs
      in
      let batched, _, now = replay history in
      let single, _, _ = replay history in
      let issued_batched = Authority.issue_roas batched ~now specs in
      let issued_single =
        List.map
          (fun (asid, v4_entries) -> Authority.issue_roa single ~asid ~v4_entries ~now ())
          specs
      in
      if
        List.map (fun (f, r) -> (f, Roa.encode r)) issued_batched
        <> List.map (fun (f, r) -> (f, Roa.encode r)) issued_single
      then QCheck.Test.fail_report "issued ROAs differ";
      check_same ~now batched single;
      true)

(* [maintain] on an authority with no child CA, against renewing its ROAs
   one at a time and then refreshing: the child CA, when the history made
   one, is that authority. *)
let prop_batch_maintain =
  QCheck.Test.make ~name:"maintain publishes the bytes of one renewal at a time" ~count:100
    (QCheck.make ~print:print_history history_gen) (fun history ->
      let leaf (ca, sub, now) = (Option.value sub ~default:ca, now) in
      let maintained, now = leaf (replay history) in
      let reference, _ = leaf (replay history) in
      Authority.maintain maintained ~now;
      List.iter
        (fun (filename, _) -> ignore (Authority.renew_roa reference ~filename ~now))
        (Authority.roas reference);
      Authority.refresh reference ~now;
      check_same ~now maintained reference;
      true)

let () =
  Alcotest.run "repo"
    [ ( "mechanics",
        [ Alcotest.test_case "pub point" `Quick test_pub_point;
          Alcotest.test_case "universe" `Quick test_universe ] );
      ( "model",
        [ Alcotest.test_case "sync" `Quick test_model_sync;
          Alcotest.test_case "figure 5 left statuses" `Quick test_model_fig5_left;
          Alcotest.test_case "deterministic build" `Slow test_model_deterministic ] );
      ( "authority",
        [ Alcotest.test_case "issue and renew" `Quick test_issue_and_renew;
          Alcotest.test_case "expiry" `Quick test_roa_expiry;
          Alcotest.test_case "refresh" `Quick test_refresh_keeps_current;
          Alcotest.test_case "stale manifest" `Quick test_stale_manifest_detected;
          QCheck_alcotest.to_alcotest prop_batch_issue;
          QCheck_alcotest.to_alcotest prop_batch_maintain ] );
      ( "revocation",
        [ Alcotest.test_case "revoke ROA" `Quick test_revoke_roa;
          Alcotest.test_case "revoke child subtree" `Quick test_revoke_child_subtree;
          Alcotest.test_case "stealth delete" `Quick test_stealth_delete_no_crl ] );
      ( "side-effect-6",
        [ Alcotest.test_case "missing => invalid not unknown" `Quick
            test_se6_missing_roa_invalid_not_unknown;
          Alcotest.test_case "corrupt => invalid" `Quick test_se6_corrupt_roa;
          Alcotest.test_case "wipe and repair" `Quick test_wipe_and_repair ] );
      ( "reachability",
        [ Alcotest.test_case "stale cache" `Quick test_unreachable_uses_stale_cache;
          Alcotest.test_case "no stale policy" `Quick test_unreachable_without_cache;
          Alcotest.test_case "flush cache" `Quick test_flush_cache ] );
      ("make-before-break", [ Alcotest.test_case "certify_key" `Quick test_certify_key ]);
      ( "keys",
        [ Alcotest.test_case "make_keys on 4 Domains" `Quick test_make_keys_on_domains;
          Alcotest.test_case "given keys change nothing" `Quick test_keys_change_nothing ] ) ]
