(** Resource certificates (RFC 6487 profile, simplified).

    An RC binds a subject's public key to a resource bundle and carries the
    URIs that stitch the distributed RPKI together: where the subject
    publishes (SIA), where the issuer's certificate lives (AIA) and where
    the issuer's CRL lives (CRL-DP).  EE certificates are the same structure
    with [is_ca = false]. *)

open Rpki_crypto

type t = {
  serial : int;
  issuer : string;              (** issuer's subject name *)
  subject : string;
  public_key : Rsa.public;
  resources : Resources.t;
  not_before : Rtime.t;
  not_after : Rtime.t;
  is_ca : bool;
  crl_uri : string option;      (** where the issuer publishes revocations *)
  aia_uri : string option;      (** where this certificate's issuer cert lives *)
  repo_uri : string option;     (** SIA: the subject's publication point *)
  manifest_uri : string option; (** SIA: the subject's manifest filename *)
  signature : string;           (** issuer's signature over the TBS bytes *)
}

val tbs_bytes : t -> string
(** DER bytes the signature is computed over. *)

val to_der : t -> Rpki_asn.Der.t
val encode : t -> string

val of_der : Rpki_asn.Der.t -> t
(** Raises {!Rpki_asn.Der.Decode_error} on structural mismatch. *)

val decode : string -> (t, string) result

val issue :
  issuer_key:Rsa.private_ ->
  serial:int ->
  issuer:string ->
  subject:string ->
  public_key:Rsa.public ->
  resources:Resources.t ->
  not_before:Rtime.t ->
  not_after:Rtime.t ->
  is_ca:bool ->
  ?crl_uri:string ->
  ?aia_uri:string ->
  ?repo_uri:string ->
  ?manifest_uri:string ->
  unit ->
  t
(** Sign a certificate with the issuer's private key.  All issuance in the
    system funnels through here. *)

val self_signed :
  key:Rsa.keypair ->
  subject:string ->
  resources:Resources.t ->
  not_before:Rtime.t ->
  not_after:Rtime.t ->
  ?repo_uri:string ->
  ?manifest_uri:string ->
  unit ->
  t
(** A trust-anchor certificate (serial 1, issuer = subject). *)

val key_id : t -> string
(** The subject key identifier (SHA-256 of the public key). *)

val same_contents : t -> t -> bool
(** Identity modulo the signature: lets the monitor tell "reissued with
    different contents" from "re-signed". *)
