(* Object validation (RFC 6487 / 6488-style checks, simplified).

   Every check returns typed evidence on failure rather than a boolean, so
   that the attack, monitor and simulation layers can attribute a validity
   change to the specific manipulation that caused it. *)

open Rpki_crypto

type failure =
  | Expired of { not_after : Rtime.t }
  | Not_yet_valid of { not_before : Rtime.t }
  | Bad_signature of string (* which object *)
  | Wrong_issuer of { expected : string; got : string }
  | Resource_overclaim of { subject : string; excess : Resources.t }
  | Revoked of { serial : int; issuer : string }
  | Stale_crl of { next_update : Rtime.t }
  | Not_a_ca of string
  | Is_a_ca of string (* EE slot filled by a CA certificate *)
  | Bad_max_length of { len : int; max_len : int }
  | Malformed of string

let pp_failure fmt = function
  | Expired { not_after } -> Format.fprintf fmt "expired (notAfter=%a)" Rtime.pp not_after
  | Not_yet_valid { not_before } ->
    Format.fprintf fmt "not yet valid (notBefore=%a)" Rtime.pp not_before
  | Bad_signature what -> Format.fprintf fmt "bad signature on %s" what
  | Wrong_issuer { expected; got } ->
    Format.fprintf fmt "wrong issuer (expected %s, got %s)" expected got
  | Resource_overclaim { subject; excess } ->
    Format.fprintf fmt "resource overclaim by %s: %a" subject Resources.pp excess
  | Revoked { serial; issuer } -> Format.fprintf fmt "revoked (serial %d by %s)" serial issuer
  | Stale_crl { next_update } ->
    Format.fprintf fmt "stale CRL (nextUpdate=%a)" Rtime.pp next_update
  | Not_a_ca s -> Format.fprintf fmt "%s is not a CA" s
  | Is_a_ca s -> Format.fprintf fmt "%s is a CA where an EE is required" s
  | Bad_max_length { len; max_len } ->
    Format.fprintf fmt "maxLength %d shorter than prefix length %d" max_len len
  | Malformed what -> Format.fprintf fmt "malformed %s" what

let failure_to_string f = Format.asprintf "%a" pp_failure f

(* The relying party's issue taxonomy.  Validation failures map onto it via
   {!failure_kind}; the fetch path adds transport-shaped kinds of its own.
   The categories mirror the real-world RP error corpus (SNIPPETS.md):
   expired CRLs, missing manifests, seqnum gaps, expired / not-yet-valid
   certificates, RFC 3779 violations, manifest-number regressions, and the
   transport outcomes (DNS, refused, timeout, cross-origin redirect). *)
type issue_kind =
  | Ik_expired                (* certificate / ROA EE past notAfter *)
  | Ik_not_yet_valid          (* forward-dated certificate *)
  | Ik_expired_crl            (* CRL past nextUpdate *)
  | Ik_stale_manifest         (* manifest past nextUpdate *)
  | Ik_missing_manifest       (* no usable manifest at the point *)
  | Ik_missing_crl            (* CRL absent or undecodable *)
  | Ik_missing_object         (* listed on the manifest but not served *)
  | Ik_hash_mismatch          (* served bytes disagree with manifest hash *)
  | Ik_unlisted_object        (* served but not on the manifest *)
  | Ik_seqnum_gap             (* manifest number jumped implausibly far *)
  | Ik_manifest_regression    (* manifest number went backwards *)
  | Ik_bad_signature
  | Ik_wrong_issuer
  | Ik_rfc3779_overclaim      (* resources not a subset of the parent's *)
  | Ik_revoked
  | Ik_bad_max_length
  | Ik_profile                (* CA/EE role violation *)
  | Ik_malformed
  | Ik_transport_unreachable
  | Ik_transport_refused
  | Ik_transport_dns
  | Ik_transport_timeout      (* stalled past the fetch timeout *)
  | Ik_transport_redirect     (* cross-origin redirect, not followed *)
  | Ik_budget_exhausted
  | Ik_no_publication_point
  | Ik_rrdp_desync
  | Ik_grace_hold
  | Ik_unsafe_vrp             (* VRP overlapping a failed CA's resources *)

let issue_kind_to_string = function
  | Ik_expired -> "expired-cert"
  | Ik_not_yet_valid -> "not-yet-valid"
  | Ik_expired_crl -> "expired-crl"
  | Ik_stale_manifest -> "stale-manifest"
  | Ik_missing_manifest -> "missing-manifest"
  | Ik_missing_crl -> "missing-crl"
  | Ik_missing_object -> "missing-object"
  | Ik_hash_mismatch -> "hash-mismatch"
  | Ik_unlisted_object -> "unlisted-object"
  | Ik_seqnum_gap -> "seqnum-gap"
  | Ik_manifest_regression -> "manifest-regression"
  | Ik_bad_signature -> "bad-signature"
  | Ik_wrong_issuer -> "wrong-issuer"
  | Ik_rfc3779_overclaim -> "rfc3779-overclaim"
  | Ik_revoked -> "revoked"
  | Ik_bad_max_length -> "bad-max-length"
  | Ik_profile -> "profile"
  | Ik_malformed -> "malformed"
  | Ik_transport_unreachable -> "transport-unreachable"
  | Ik_transport_refused -> "transport-refused"
  | Ik_transport_dns -> "transport-dns"
  | Ik_transport_timeout -> "transport-timeout"
  | Ik_transport_redirect -> "transport-redirect"
  | Ik_budget_exhausted -> "budget-exhausted"
  | Ik_no_publication_point -> "no-publication-point"
  | Ik_rrdp_desync -> "rrdp-desync"
  | Ik_grace_hold -> "grace-hold"
  | Ik_unsafe_vrp -> "unsafe-vrp"

let failure_kind = function
  | Expired _ -> Ik_expired
  | Not_yet_valid _ -> Ik_not_yet_valid
  | Bad_signature _ -> Ik_bad_signature
  | Wrong_issuer _ -> Ik_wrong_issuer
  | Resource_overclaim _ -> Ik_rfc3779_overclaim
  | Revoked _ -> Ik_revoked
  | Stale_crl _ -> Ik_expired_crl
  | Not_a_ca _ | Is_a_ca _ -> Ik_profile
  | Bad_max_length _ -> Ik_bad_max_length
  | Malformed _ -> Ik_malformed

let ( let* ) = Result.bind

let check_window ~now ~not_before ~not_after =
  if Rtime.( < ) now not_before then Error (Not_yet_valid { not_before })
  else if Rtime.( < ) not_after now then Error (Expired { not_after })
  else Ok ()

(* Every signature check below funnels through the [verify] parameter; the
   default is the real {!Rsa.verify}.  A caller may substitute a memoizing
   wrapper (the shared validation plane's verdict cache) — substitution is
   sound because RSA verification is a pure function of (key, signature,
   message). *)
type verifier = key:Rsa.public -> signature:string -> string -> bool

let default_verify : verifier = fun ~key ~signature msg -> Rsa.verify ~key ~signature msg

(* Validate a CRL against its issuing CA. *)
let validate_crl ?(verify = default_verify) ~now ~(parent : Cert.t) (crl : Crl.t) =
  let* () =
    if crl.Crl.issuer <> parent.Cert.subject then
      Error (Wrong_issuer { expected = parent.Cert.subject; got = crl.Crl.issuer })
    else Ok ()
  in
  let* () =
    if verify ~key:parent.Cert.public_key ~signature:crl.Crl.signature (Crl.tbs_bytes crl)
    then Ok ()
    else Error (Bad_signature "CRL")
  in
  if Rtime.( < ) crl.Crl.next_update now then
    Error (Stale_crl { next_update = crl.Crl.next_update })
  else Ok ()

(* Validate one certificate under a validated parent.  [crl], when present,
   must already have been validated against the same parent. *)
let validate_cert ?(verify = default_verify) ~now ~(parent : Cert.t) ?crl (cert : Cert.t) =
  let* () =
    if not parent.Cert.is_ca then Error (Not_a_ca parent.Cert.subject) else Ok ()
  in
  let* () =
    if cert.Cert.issuer <> parent.Cert.subject then
      Error (Wrong_issuer { expected = parent.Cert.subject; got = cert.Cert.issuer })
    else Ok ()
  in
  let* () =
    if verify ~key:parent.Cert.public_key ~signature:cert.Cert.signature (Cert.tbs_bytes cert)
    then Ok ()
    else Error (Bad_signature (Printf.sprintf "certificate for %s" cert.Cert.subject))
  in
  let* () = check_window ~now ~not_before:cert.Cert.not_before ~not_after:cert.Cert.not_after in
  let* () =
    let excess =
      Resources.overclaim ~claimed:cert.Cert.resources ~allowed:parent.Cert.resources
    in
    if Resources.is_empty excess then Ok ()
    else Error (Resource_overclaim { subject = cert.Cert.subject; excess })
  in
  match crl with
  | Some crl when Crl.revokes crl cert.Cert.serial ->
    Error (Revoked { serial = cert.Cert.serial; issuer = parent.Cert.subject })
  | _ -> Ok ()

(* Validate a trust-anchor certificate against its out-of-band key (the TAL
   model: the relying party is configured with the TA's public key). *)
let validate_trust_anchor ?(verify = default_verify) ~now ~(expected_key : Rsa.public)
    (cert : Cert.t) =
  let* () =
    if Rsa.equal_public cert.Cert.public_key expected_key then Ok ()
    else Error (Bad_signature "trust anchor key mismatch")
  in
  let* () =
    if verify ~key:expected_key ~signature:cert.Cert.signature (Cert.tbs_bytes cert) then Ok ()
    else Error (Bad_signature "trust anchor certificate")
  in
  let* () = check_window ~now ~not_before:cert.Cert.not_before ~not_after:cert.Cert.not_after in
  if cert.Cert.is_ca then Ok () else Error (Not_a_ca cert.Cert.subject)

(* Validate a ROA under a validated parent CA; returns the VRPs it yields. *)
let validate_roa ?(verify = default_verify) ~now ~(parent : Cert.t) ?crl (roa : Roa.t) =
  let ee = roa.Roa.ee in
  let* () = validate_cert ~verify ~now ~parent ?crl ee in
  let* () = if ee.Cert.is_ca then Error (Is_a_ca ee.Cert.subject) else Ok () in
  let* () =
    if verify ~key:ee.Cert.public_key ~signature:roa.Roa.signature (Roa.content_bytes roa)
    then Ok ()
    else Error (Bad_signature "ROA content")
  in
  (* each prefix must sit inside the EE certificate's resources *)
  let* () =
    let claimed = Roa.resources roa in
    let excess = Resources.overclaim ~claimed ~allowed:ee.Cert.resources in
    if Resources.is_empty excess then Ok ()
    else Error (Resource_overclaim { subject = ee.Cert.subject; excess })
  in
  let* () =
    List.fold_left
      (fun acc (e : Roa.v4_entry) ->
        let* () = acc in
        let len = Rpki_ip.V4.Prefix.len e.Roa.prefix in
        if e.Roa.max_len < len || e.Roa.max_len > 32 then
          Error (Bad_max_length { len; max_len = e.Roa.max_len })
        else Ok ())
      (Ok ()) roa.Roa.v4_entries
  in
  Ok (Vrp.of_roa roa)

(* Validate a manifest under a validated parent CA. *)
let validate_manifest ?(verify = default_verify) ~now ~(parent : Cert.t) ?crl
    (mft : Manifest.t) =
  let ee = mft.Manifest.ee in
  let* () = validate_cert ~verify ~now ~parent ?crl ee in
  let* () = if ee.Cert.is_ca then Error (Is_a_ca ee.Cert.subject) else Ok () in
  let* () =
    if
      verify ~key:ee.Cert.public_key ~signature:mft.Manifest.signature
        (Manifest.content_bytes mft)
    then Ok ()
    else Error (Bad_signature "manifest content")
  in
  if Rtime.( < ) mft.Manifest.next_update now then
    Error (Stale_crl { next_update = mft.Manifest.next_update })
  else Ok ()
