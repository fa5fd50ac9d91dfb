(** One publication point, validated object by object.

    A pure function of the issuing CA certificate, the point's listing,
    [now] and, optionally, the per-file results of an earlier validation of
    the same point: no relying-party state, no transport and no URI.  The
    relying party calls it on a memo and shared-plane miss, passing the
    results of its own last validation of the point; a reference validator
    can call it directly. *)

open Rpki_core

type results
(** The per-file results of one validation: for each file its name, a
    reference to its bytes, their SHA-256, the boundaries of its validity
    window, the serial the CRL was asked about with the CRL's answer, and
    what the file contributed (VRPs, a child CA certificate, an issue).  No
    decoded object is kept. *)

val validate :
  ?verify:Validation.verifier ->
  ?prev:results ->
  now:Rtime.t ->
  ca_cert:Cert.t ->
  parent_fp:string ->
  snap_fp:string ->
  (string * string) list ->
  Valcache.outcome * results
(** [validate ~now ~ca_cert ~parent_fp ~snap_fp listing] checks the CA's
    manifest (signature, window, every listed file present and matching
    its hash, nothing unlisted), its CRL, and every other object at the
    point under [ca_cert], and returns the outcome with its per-file
    results.  The outcome holds the VRPs and their digest, the issues
    (filename, kind, reason), the child CA certificates that validated
    with the SHA-256 of their bytes, the resources of child CAs that
    failed, the manifest number and hash as served, and the validity
    boundaries consulted: each the first instant at which one of
    validation's time predicates ([now < notBefore], [notAfter < now],
    [nextUpdate < now]) changes its answer, so the outcome holds at any
    [now] on the same {!Valcache.side} of all of them.  [parent_fp]
    (SHA-256 of the bytes [ca_cert] was decoded from) and [snap_fp] (the
    listing's fingerprint) are the outcome's cache key and are not checked
    here.  [verify] replaces {!Rpki_crypto.Rsa.verify} for every signature
    check.

    Given [prev], the results of an earlier validation under the same
    [parent_fp], an object other than the manifest and CRL keeps its
    earlier contribution when its name and bytes are the same, [now] is on
    the same side of its own window's boundaries as then, and the current
    CRL gives the same answer for its serial (a missing or invalid CRL
    revokes nothing); every other object is decoded and checked afresh.
    The manifest and CRL are always checked, and a file whose bytes are
    the same is not hashed again.  The outcome equals a validation without
    [prev] field for field. *)
