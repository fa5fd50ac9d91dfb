(* Tests for the RPKI object model, validation and route-origin validation. *)

open Rpki_core
open Rpki_crypto
open Rpki_ip

let rng_of seed = Drbg.to_rng (Drbg.create ~seed)

(* A tiny two-level hierarchy built by hand (no repositories involved). *)
let ta_key = lazy (Rsa.generate (rng_of "core-ta"))
let child_key = lazy (Rsa.generate (rng_of "core-child"))

let resources_of strs = Resources.of_v4_strings strs

let ta_cert =
  lazy
    (Cert.self_signed ~key:(Lazy.force ta_key) ~subject:"TA"
       ~resources:(resources_of [ "10.0.0.0/8" ]) ~not_before:0 ~not_after:1000
       ~repo_uri:"rsync://ta/repo" ~manifest_uri:"TA.mft" ())

let issue_child ?(resources = resources_of [ "10.1.0.0/16" ]) ?(serial = 7) ?(not_after = 500)
    ?(is_ca = true) () =
  Cert.issue ~issuer_key:(Lazy.force ta_key).Rsa.private_ ~serial ~issuer:"TA" ~subject:"Child"
    ~public_key:(Lazy.force child_key).Rsa.public ~resources ~not_before:0 ~not_after ~is_ca
    ~repo_uri:"rsync://child/repo" ~manifest_uri:"Child.mft" ()

let fail_to_string = function Ok _ -> "ok" | Error f -> Validation.failure_to_string f

let check_ok name r = Alcotest.(check string) name "ok" (fail_to_string r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_fails name pattern r =
  match r with
  | Ok _ -> Alcotest.failf "%s: expected failure" name
  | Error f ->
    let s = Validation.failure_to_string f in
    if not (contains s pattern) then Alcotest.failf "%s: expected %S in %S" name pattern s

(* --- certificate encode/decode --- *)

let test_cert_roundtrip () =
  let c = issue_child () in
  match Cert.decode (Cert.encode c) with
  | Error e -> Alcotest.fail e
  | Ok c' ->
    Alcotest.(check bool) "same contents" true (Cert.same_contents c c');
    Alcotest.(check string) "same signature" c.Cert.signature c'.Cert.signature;
    Alcotest.(check (option string)) "repo uri" (Some "rsync://child/repo") c'.Cert.repo_uri

let test_cert_decode_garbage () =
  (match Cert.decode "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded");
  match Cert.decode (Rpki_asn.Der.encode (Rpki_asn.Der.Sequence [])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong structure decoded"

(* --- certificate validation --- *)

let test_validate_ok () =
  check_ok "valid child" (Validation.validate_cert ~now:100 ~parent:(Lazy.force ta_cert) (issue_child ()))

let test_validate_expired () =
  check_fails "expired" "expired"
    (Validation.validate_cert ~now:501 ~parent:(Lazy.force ta_cert) (issue_child ()))

let test_validate_not_yet () =
  let c =
    Cert.issue ~issuer_key:(Lazy.force ta_key).Rsa.private_ ~serial:9 ~issuer:"TA" ~subject:"Child"
      ~public_key:(Lazy.force child_key).Rsa.public ~resources:(resources_of [ "10.1.0.0/16" ])
      ~not_before:50 ~not_after:500 ~is_ca:true ()
  in
  check_fails "not yet valid" "not yet valid"
    (Validation.validate_cert ~now:10 ~parent:(Lazy.force ta_cert) c)

let test_validate_bad_signature () =
  let c = issue_child () in
  let tampered = { c with Cert.subject = "Chold" } in
  check_fails "tampered subject" "bad signature"
    (Validation.validate_cert ~now:100 ~parent:(Lazy.force ta_cert) tampered)

let test_validate_overclaim () =
  (* child claims space outside the TA's 10.0.0.0/8 *)
  let c = issue_child ~resources:(resources_of [ "10.1.0.0/16"; "11.0.0.0/16" ]) () in
  check_fails "overclaim" "overclaim"
    (Validation.validate_cert ~now:100 ~parent:(Lazy.force ta_cert) c)

let test_validate_wrong_issuer () =
  let other = Rsa.generate (rng_of "other-ta") in
  let other_cert =
    Cert.self_signed ~key:other ~subject:"OTHER" ~resources:(resources_of [ "10.0.0.0/8" ])
      ~not_before:0 ~not_after:1000 ()
  in
  check_fails "wrong issuer" "wrong issuer"
    (Validation.validate_cert ~now:100 ~parent:other_cert (issue_child ()))

let test_validate_revoked () =
  let crl =
    Crl.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~issuer:"TA" ~this_update:90
      ~next_update:200 ~revoked_serials:[ 7 ]
  in
  check_ok "crl itself" (Validation.validate_crl ~now:100 ~parent:(Lazy.force ta_cert) crl);
  check_fails "revoked" "revoked"
    (Validation.validate_cert ~now:100 ~parent:(Lazy.force ta_cert) ~crl (issue_child ~serial:7 ()));
  check_ok "other serial fine"
    (Validation.validate_cert ~now:100 ~parent:(Lazy.force ta_cert) ~crl (issue_child ~serial:8 ()))

let test_validate_stale_crl () =
  let crl =
    Crl.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~issuer:"TA" ~this_update:0 ~next_update:50
      ~revoked_serials:[]
  in
  check_fails "stale" "stale" (Validation.validate_crl ~now:100 ~parent:(Lazy.force ta_cert) crl)

let test_validate_crl_bad_sig () =
  let crl =
    Crl.issue ~ca_key:(Lazy.force child_key).Rsa.private_ ~issuer:"TA" ~this_update:0
      ~next_update:500 ~revoked_serials:[]
  in
  check_fails "crl forged" "bad signature"
    (Validation.validate_crl ~now:100 ~parent:(Lazy.force ta_cert) crl)

let test_validate_trust_anchor () =
  check_ok "ta ok"
    (Validation.validate_trust_anchor ~now:100 ~expected_key:(Lazy.force ta_key).Rsa.public
       (Lazy.force ta_cert));
  let other = Rsa.generate (rng_of "impostor") in
  check_fails "key mismatch" "bad signature"
    (Validation.validate_trust_anchor ~now:100 ~expected_key:other.Rsa.public (Lazy.force ta_cert))

(* --- ROAs --- *)

let issue_roa ?(entries = [ Roa.entry ~max_len:24 (V4.p "10.1.0.0/20") ]) ?(asid = 65000) () =
  Roa.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~ca_subject:"TA" ~serial:42
    ~rng:(rng_of "roa-ee") ~asid ~v4_entries:entries ~not_before:0 ~not_after:500 ()

let test_roa_roundtrip () =
  let r = issue_roa () in
  match Roa.decode (Roa.encode r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check int) "asid" r.Roa.asid r'.Roa.asid;
    Alcotest.(check int) "entries" (List.length r.Roa.v4_entries) (List.length r'.Roa.v4_entries);
    Alcotest.(check string) "sig" r.Roa.signature r'.Roa.signature

let test_roa_validates () =
  match Validation.validate_roa ~now:100 ~parent:(Lazy.force ta_cert) (issue_roa ()) with
  | Ok vrps ->
    Alcotest.(check int) "one vrp" 1 (List.length vrps);
    Alcotest.(check string) "vrp" "(10.1.0.0/20-24, AS65000)" (Vrp.to_string (List.hd vrps))
  | Error f -> Alcotest.fail (Validation.failure_to_string f)

let test_roa_tamper () =
  let r = issue_roa () in
  let tampered = { r with Roa.asid = 666 } in
  check_fails "content tamper" "bad signature"
    (Validation.validate_roa ~now:100 ~parent:(Lazy.force ta_cert) tampered)

let test_roa_revoked_ee () =
  let r = issue_roa () in
  let crl =
    Crl.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~issuer:"TA" ~this_update:90
      ~next_update:200 ~revoked_serials:[ r.Roa.ee.Cert.serial ]
  in
  check_fails "ee revoked" "revoked"
    (Validation.validate_roa ~now:100 ~parent:(Lazy.force ta_cert) ~crl r)

(* A CA certificate's key is whatever integers it encodes.  Under a 256-bit
   modulus the EE signature, even one cut to the modulus width, is a typed
   failure, not an exception. *)
let test_roa_narrow_parent_key () =
  let module Nat = Rpki_bignum.Nat in
  let narrow = Rsa.public ~n:(Nat.succ (Nat.shift_left Nat.one 255)) ~e:(Nat.of_int 65537) in
  let parent = { (Lazy.force ta_cert) with Cert.public_key = narrow } in
  let r = issue_roa () in
  let r = { r with Roa.ee = { r.Roa.ee with Cert.signature = String.make 32 '\x01' } } in
  check_fails "256-bit CA key" "bad signature" (Validation.validate_roa ~now:100 ~parent r)

let test_roa_entry_maxlen () =
  Alcotest.check_raises "maxlen < len" (Invalid_argument "Roa.entry: bad max_len") (fun () ->
      ignore (Roa.entry ~max_len:19 (V4.p "10.1.0.0/20")));
  Alcotest.check_raises "maxlen > 32" (Invalid_argument "Roa.entry: bad max_len") (fun () ->
      ignore (Roa.entry ~max_len:33 (V4.p "10.1.0.0/20")))

let test_roa_v6 () =
  (* a dual-stack ROA: v6 entries flow through issue/validate/roundtrip *)
  let ta6_key = Rsa.generate (rng_of "core-ta6") in
  let resources =
    Resources.make
      ~v4:(V4.Set.of_prefix (V4.p "10.0.0.0/8"))
      ~v6:(V6.Set.of_prefix (V6.p "2001:db8::/32"))
      ()
  in
  let ta6 =
    Cert.self_signed ~key:ta6_key ~subject:"TA6" ~resources ~not_before:0 ~not_after:1000 ()
  in
  let roa =
    Roa.issue ~ca_key:ta6_key.Rsa.private_ ~ca_subject:"TA6" ~serial:5 ~rng:(rng_of "roa6-ee")
      ~asid:64510
      ~v4_entries:[ Roa.entry (V4.p "10.2.0.0/16") ]
      ~v6_entries:[ Roa.entry6 ~max_len:48 (V6.p "2001:db8:a::/48") ]
      ~not_before:0 ~not_after:500 ()
  in
  (match Roa.decode (Roa.encode roa) with
  | Error e -> Alcotest.fail e
  | Ok roa' ->
    Alcotest.(check int) "v6 entries survive" 1 (List.length roa'.Roa.v6_entries));
  (match Validation.validate_roa ~now:100 ~parent:ta6 roa with
  | Ok vrps -> Alcotest.(check int) "v4 vrps only (v6 carried)" 1 (List.length vrps)
  | Error f -> Alcotest.fail (Validation.failure_to_string f));
  (* v6 overclaim is caught too *)
  let bad =
    Roa.issue ~ca_key:ta6_key.Rsa.private_ ~ca_subject:"TA6" ~serial:6 ~rng:(rng_of "roa6-bad")
      ~asid:64510 ~v4_entries:[]
      ~v6_entries:[ Roa.entry6 (V6.p "2001:db9::/32") ]
      ~not_before:0 ~not_after:500 ()
  in
  (* the EE was certified for exactly the ROA's space, so make the EE itself
     overclaim by validating under a parent without that space *)
  check_fails "v6 overclaim" "overclaim" (Validation.validate_roa ~now:100 ~parent:ta6 bad)

(* --- manifests --- *)

let test_manifest () =
  let files = [ ("a.roa", "bytes-a"); ("b.cer", "bytes-b") ] in
  let m =
    Manifest.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~ca_subject:"TA" ~serial:50
      ~rng:(rng_of "mft-ee") ~manifest_number:3 ~this_update:0 ~next_update:300 ~files ()
  in
  (match Manifest.decode (Manifest.encode m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check int) "number" 3 m'.Manifest.manifest_number;
    Alcotest.(check int) "entries" 2 (List.length m'.Manifest.entries));
  check_ok "validates" (Validation.validate_manifest ~now:100 ~parent:(Lazy.force ta_cert) m);
  (* past nextUpdate the manifest's EE certificate has also expired, which
     is the failure validation reports first *)
  check_fails "stale manifest" "expired"
    (Validation.validate_manifest ~now:400 ~parent:(Lazy.force ta_cert) m);
  (match Manifest.find m "a.roa" with
  | Some e ->
    Alcotest.(check bool) "hash matches" true
      (String.equal e.Manifest.hash (Sha256.digest "bytes-a"))
  | None -> Alcotest.fail "entry missing")

(* --- CRL roundtrip --- *)

let test_crl_roundtrip () =
  let crl =
    Crl.issue ~ca_key:(Lazy.force ta_key).Rsa.private_ ~issuer:"TA" ~this_update:1 ~next_update:2
      ~revoked_serials:[ 5; 3; 5; 1 ]
  in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 3; 5 ] crl.Crl.revoked_serials;
  match Crl.decode (Crl.encode crl) with
  | Error e -> Alcotest.fail e
  | Ok crl' -> Alcotest.(check (list int)) "roundtrip" [ 1; 3; 5 ] crl'.Crl.revoked_serials

(* --- route-origin validation (RFC 6811 semantics) --- *)

let state = Alcotest.testable Origin_validation.pp_state Origin_validation.equal_state

let idx =
  lazy
    (Origin_validation.build
       [ Vrp.make ~max_len:24 (V4.p "63.161.0.0/16") 1239;
         Vrp.make ~max_len:20 (V4.p "63.174.16.0/20") 17054;
         Vrp.make ~max_len:22 (V4.p "63.174.16.0/22") 7341 ])

let classify p o = Origin_validation.classify (Lazy.force idx) (Route.make (V4.p p) o)

let test_ov_valid () =
  Alcotest.check state "exact match" Origin_validation.Valid (classify "63.174.16.0/20" 17054);
  Alcotest.check state "within maxlen" Origin_validation.Valid (classify "63.161.7.0/24" 1239);
  Alcotest.check state "at maxlen" Origin_validation.Valid (classify "63.161.0.0/24" 1239)

let test_ov_invalid () =
  Alcotest.check state "wrong origin" Origin_validation.Invalid (classify "63.174.16.0/20" 666);
  Alcotest.check state "beyond maxlen" Origin_validation.Invalid (classify "63.174.17.0/24" 17054);
  Alcotest.check state "subprefix hijack" Origin_validation.Invalid (classify "63.161.0.0/25" 1239);
  Alcotest.check state "deeper than all" Origin_validation.Invalid (classify "63.174.16.0/24" 7341)

let test_ov_unknown () =
  Alcotest.check state "no covering" Origin_validation.Unknown (classify "63.160.0.0/12" 1239);
  Alcotest.check state "sibling space" Origin_validation.Unknown (classify "63.200.0.0/16" 1239)

let test_ov_as0 () =
  (* an AS0 ROA makes routes invalid, never valid (RFC 6483 section 4) *)
  let idx0 = Origin_validation.build [ Vrp.make ~max_len:24 (V4.p "192.0.2.0/24") 0 ] in
  Alcotest.check state "as0 invalidates" Origin_validation.Invalid
    (Origin_validation.classify idx0 (Route.make (V4.p "192.0.2.0/24") 0));
  Alcotest.check state "as0 invalidates others" Origin_validation.Invalid
    (Origin_validation.classify idx0 (Route.make (V4.p "192.0.2.0/24") 7018))

let test_ov_multiple_vrps () =
  (* two ROAs for the same prefix with different origins: both origins valid *)
  let idx2 =
    Origin_validation.build
      [ Vrp.make (V4.p "10.0.0.0/16") 1; Vrp.make (V4.p "10.0.0.0/16") 2 ]
  in
  Alcotest.check state "origin 1" Origin_validation.Valid
    (Origin_validation.classify idx2 (Route.make (V4.p "10.0.0.0/16") 1));
  Alcotest.check state "origin 2" Origin_validation.Valid
    (Origin_validation.classify idx2 (Route.make (V4.p "10.0.0.0/16") 2));
  Alcotest.check state "origin 3 invalid" Origin_validation.Invalid
    (Origin_validation.classify idx2 (Route.make (V4.p "10.0.0.0/16") 3))

let test_ov_explain () =
  let st, matching, covering =
    Origin_validation.explain (Lazy.force idx) (Route.make (V4.p "63.174.17.0/24") 17054)
  in
  Alcotest.check state "invalid" Origin_validation.Invalid st;
  Alcotest.(check int) "no matches" 0 (List.length matching);
  Alcotest.(check bool) "has covering" true (covering <> [])

(* validity grid agrees with direct classification *)
let test_grid_consistency () =
  let summary =
    Validity_grid.summarize_length (Lazy.force idx) ~root:(V4.p "63.160.0.0/12") ~len:20
      ~origin:17054
  in
  (* brute force over all /20s under the /12 *)
  let brute = ref (0, 0, 0) in
  let base = V4.Prefix.addr (V4.p "63.160.0.0/12") in
  for i = 0 to (1 lsl 8) - 1 do
    let prefix = V4.Prefix.make (base + (i lsl 12)) 20 in
    match Origin_validation.classify (Lazy.force idx) (Route.make prefix 17054) with
    | Origin_validation.Valid -> let v, x, u = !brute in brute := (v + 1, x, u)
    | Origin_validation.Invalid -> let v, x, u = !brute in brute := (v, x + 1, u)
    | Origin_validation.Unknown -> let v, x, u = !brute in brute := (v, x, u + 1)
  done;
  let v, x, u = !brute in
  Alcotest.(check int) "valid" v summary.Validity_grid.valid;
  Alcotest.(check int) "invalid" x summary.Validity_grid.invalid;
  Alcotest.(check int) "unknown" u summary.Validity_grid.unknown

let test_grid_fig5_shape () =
  (* at /24 under the /12 for an unrelated origin, exactly the covered
     space is invalid and everything else unknown *)
  let s =
    Validity_grid.summarize_length (Lazy.force idx) ~root:(V4.p "63.160.0.0/12") ~len:24
      ~origin:99999
  in
  Alcotest.(check int) "valid none" 0 s.Validity_grid.valid;
  (* covered /24s: 256 under 63.161/16 + 16 under 63.174.16/20 *)
  Alcotest.(check int) "invalid count" (256 + 16) s.Validity_grid.invalid;
  Alcotest.(check int) "unknown rest" (4096 - 256 - 16) s.Validity_grid.unknown

let prop_ov_trie_matches_naive =
  let arb_vrps =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map Vrp.to_string l))
      QCheck.Gen.(
        list_size (int_bound 20)
          (map3
             (fun a len asn ->
               let len = len mod 25 in
               let prefix = V4.Prefix.make (abs a mod (1 lsl 32)) len in
               (* three origins, so VRPs and routes share them often; a
                  VRP's origin is an ASN, so never negative *)
               Vrp.make ~max_len:(min 32 (len + (abs asn mod 9))) prefix
                 (((asn mod 3) + 3) mod 3))
             int (int_bound 24) int))
  in
  let arb_routes =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map Route.to_string l))
      QCheck.Gen.(
        list_size (int_bound 20)
          (map3
             (fun a len o ->
               Route.make
                 (V4.Prefix.make (abs a mod (1 lsl 32)) (len mod 33))
                 (((o mod 3) + 3) mod 3))
             int (int_bound 32) int))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"trie classification matches naive RFC 6811"
       (QCheck.pair arb_vrps arb_routes)
       (fun (vrps, routes) ->
         let idx = Origin_validation.build vrps in
         List.for_all
           (fun r ->
             let covering = List.filter (fun (v : Vrp.t) -> V4.Prefix.covers v.Vrp.prefix r.Route.prefix) vrps in
             let matching =
               List.filter
                 (fun (v : Vrp.t) ->
                   v.Vrp.asn = r.Route.origin && v.Vrp.asn <> 0
                   && V4.Prefix.len r.Route.prefix <= v.Vrp.max_len)
                 covering
             in
             let naive : Origin_validation.state =
               if covering = [] then Origin_validation.Unknown
               else if matching <> [] then Origin_validation.Valid
               else Origin_validation.Invalid
             in
             Origin_validation.equal_state naive (Origin_validation.classify idx r))
           routes))

let () =
  Alcotest.run "core"
    [ ( "cert",
        [ Alcotest.test_case "roundtrip" `Quick test_cert_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_cert_decode_garbage ] );
      ( "validation",
        [ Alcotest.test_case "valid chain" `Quick test_validate_ok;
          Alcotest.test_case "expired" `Quick test_validate_expired;
          Alcotest.test_case "not yet valid" `Quick test_validate_not_yet;
          Alcotest.test_case "bad signature" `Quick test_validate_bad_signature;
          Alcotest.test_case "resource overclaim" `Quick test_validate_overclaim;
          Alcotest.test_case "wrong issuer" `Quick test_validate_wrong_issuer;
          Alcotest.test_case "revocation" `Quick test_validate_revoked;
          Alcotest.test_case "stale CRL" `Quick test_validate_stale_crl;
          Alcotest.test_case "forged CRL" `Quick test_validate_crl_bad_sig;
          Alcotest.test_case "trust anchor" `Quick test_validate_trust_anchor ] );
      ( "roa",
        [ Alcotest.test_case "roundtrip" `Quick test_roa_roundtrip;
          Alcotest.test_case "validates to VRPs" `Quick test_roa_validates;
          Alcotest.test_case "content tamper" `Quick test_roa_tamper;
          Alcotest.test_case "revoked EE" `Quick test_roa_revoked_ee;
          Alcotest.test_case "256-bit CA key" `Quick test_roa_narrow_parent_key;
          Alcotest.test_case "maxlen bounds" `Quick test_roa_entry_maxlen;
          Alcotest.test_case "dual-stack (IPv6)" `Quick test_roa_v6 ] );
      ( "manifest-crl",
        [ Alcotest.test_case "manifest" `Quick test_manifest;
          Alcotest.test_case "crl roundtrip" `Quick test_crl_roundtrip ] );
      ( "origin-validation",
        [ Alcotest.test_case "valid states" `Quick test_ov_valid;
          Alcotest.test_case "invalid states" `Quick test_ov_invalid;
          Alcotest.test_case "unknown states" `Quick test_ov_unknown;
          Alcotest.test_case "AS0" `Quick test_ov_as0;
          Alcotest.test_case "multiple VRPs per prefix" `Quick test_ov_multiple_vrps;
          Alcotest.test_case "explain" `Quick test_ov_explain;
          prop_ov_trie_matches_naive ] );
      ( "validity-grid",
        [ Alcotest.test_case "matches brute force" `Quick test_grid_consistency;
          Alcotest.test_case "figure 5 shape" `Quick test_grid_fig5_shape ] ) ]
