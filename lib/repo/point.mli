(** One publication point, validated from scratch.

    A pure function of the issuing CA certificate, the point's listing and
    [now]: no relying-party state, no transport and no URI.  The relying
    party calls it on a memo and shared-plane miss; a reference validator
    can call it directly. *)

open Rpki_core

val validate :
  ?verify:Validation.verifier ->
  now:Rtime.t ->
  ca_cert:Cert.t ->
  parent_fp:string ->
  snap_fp:string ->
  (string * string) list ->
  Valcache.outcome
(** [validate ~now ~ca_cert ~parent_fp ~snap_fp listing] checks the CA's
    manifest (signature, window, every listed file present and matching
    its hash, nothing unlisted), its CRL, and every other object at the
    point under [ca_cert], and returns the outcome: the VRPs and their
    digest, the issues (filename, kind, reason), the child CA certificates
    that validated with the SHA-256 of their bytes, the resources of child
    CAs that failed, the manifest number and hash as served, and every
    validity boundary consulted.  [parent_fp] (SHA-256 of the bytes
    [ca_cert] was decoded from) and [snap_fp] (the listing's fingerprint)
    are the outcome's cache key and are not checked here.  [verify]
    replaces {!Rpki_crypto.Rsa.verify} for every signature check. *)
