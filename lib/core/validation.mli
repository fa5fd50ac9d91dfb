(** Object validation (RFC 6487/6488-style checks, simplified).

    Every check returns typed evidence on failure rather than a boolean, so
    the attack, monitor and simulation layers can attribute a validity
    change to the specific manipulation that caused it. *)

open Rpki_crypto

(** Why a check failed.  A window failure names the bound it crossed but
    not the instant it was checked at, so a reason kept in a replayed
    outcome reads as a fresh validation's would. *)
type failure =
  | Expired of { not_after : Rtime.t }
  | Not_yet_valid of { not_before : Rtime.t }
  | Bad_signature of string            (** which object *)
  | Wrong_issuer of { expected : string; got : string }
  | Resource_overclaim of { subject : string; excess : Resources.t }
  | Revoked of { serial : int; issuer : string }
  | Stale_crl of { next_update : Rtime.t }
  | Not_a_ca of string
  | Is_a_ca of string                  (** EE slot filled by a CA cert *)
  | Bad_max_length of { len : int; max_len : int }
  | Malformed of string

val failure_to_string : failure -> string

(** The relying party's issue taxonomy — every reportable sync problem as a
    closed category, mirroring the real-world RP error corpus (SNIPPETS.md):
    expired CRLs, missing manifests, seqnum gaps, expired / not-yet-valid
    certificates, RFC 3779 violations, manifest-number regressions, plus the
    transport outcomes (DNS failure, connection refused, timeout,
    cross-origin redirect).  Free-form reason strings remain as human
    detail; the kind is what counters and benches aggregate over. *)
type issue_kind =
  | Ik_expired
  | Ik_not_yet_valid
  | Ik_expired_crl
  | Ik_stale_manifest
  | Ik_missing_manifest
  | Ik_missing_crl
  | Ik_missing_object
  | Ik_hash_mismatch
  | Ik_unlisted_object
  | Ik_seqnum_gap
  | Ik_manifest_regression
  | Ik_bad_signature
  | Ik_wrong_issuer
  | Ik_rfc3779_overclaim
  | Ik_revoked
  | Ik_bad_max_length
  | Ik_profile
  | Ik_malformed
  | Ik_transport_unreachable
  | Ik_transport_refused
  | Ik_transport_dns
  | Ik_transport_timeout
  | Ik_transport_redirect
  | Ik_budget_exhausted
  | Ik_no_publication_point
  | Ik_rrdp_desync
  | Ik_grace_hold
  | Ik_unsafe_vrp

val issue_kind_to_string : issue_kind -> string
(** Stable kebab-case label, e.g. ["expired-crl"] — used in run summaries
    and bench JSON. *)

val failure_kind : failure -> issue_kind
(** Where a validation {!failure} falls in the taxonomy.  [Stale_crl] maps
    to [Ik_expired_crl]; callers validating a {e manifest} window should
    re-map it to [Ik_stale_manifest] themselves (the failure type is shared
    between the two checks). *)

type verifier = key:Rsa.public -> signature:string -> string -> bool
(** The shape of a signature check.  Every validation function below takes
    an optional [?verify] with {!Rsa.verify} semantics as the default; a
    caller may substitute a memoizing wrapper (the shared validation
    plane's verdict cache).  Substitution is sound because RSA verification
    is a pure function of (key, signature, message). *)

val validate_crl :
  ?verify:verifier -> now:Rtime.t -> parent:Cert.t -> Crl.t -> (unit, failure) result
(** Check a CRL's issuer, signature and currency against its issuing CA. *)

val validate_cert :
  ?verify:verifier ->
  now:Rtime.t -> parent:Cert.t -> ?crl:Crl.t -> Cert.t -> (unit, failure) result
(** Validate one certificate under a validated parent: issuer match,
    signature, validity window, RFC 3779 resource containment, and (when a
    validated [crl] is supplied) revocation. *)

val validate_trust_anchor :
  ?verify:verifier ->
  now:Rtime.t -> expected_key:Rsa.public -> Cert.t -> (unit, failure) result
(** TAL-model validation: the relying party is configured out of band with
    the trust anchor's public key. *)

val validate_roa :
  ?verify:verifier ->
  now:Rtime.t -> parent:Cert.t -> ?crl:Crl.t -> Roa.t -> (Vrp.t list, failure) result
(** Validate a ROA under a validated parent CA: EE chain, content signature,
    prefix containment in the EE's resources, maxLength sanity.  Returns the
    VRPs the ROA yields. *)

val validate_manifest :
  ?verify:verifier ->
  now:Rtime.t -> parent:Cert.t -> ?crl:Crl.t -> Manifest.t -> (unit, failure) result
