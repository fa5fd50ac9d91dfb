(** Manifests (RFC 6486 profile, simplified): a signed listing of every file
    at a publication point with its SHA-256 hash.

    Manifests let a relying party detect deletions and corruptions — which
    is what makes the paper's "stealthy" manipulations a matter of policy
    rather than detectability: the RFCs do not say what to do when the
    manifest check fails (Section 4's "difficult tradeoff"). *)

open Rpki_crypto

type entry = { filename : string; hash : string (** SHA-256, raw bytes *) }

type t = {
  manifest_number : int;
  this_update : Rtime.t;
  next_update : Rtime.t;
  entries : entry list; (** sorted by filename *)
  ee : Cert.t;
  signature : string;
}

val content_bytes : t -> string
val encode : t -> string
val decode : string -> (t, string) result

val issue :
  ca_key:Rsa.private_ ->
  ca_subject:string ->
  serial:int ->
  rng:Rpki_util.Rng.t ->
  ?ee_key:Rsa.keypair ->
  manifest_number:int ->
  this_update:Rtime.t ->
  next_update:Rtime.t ->
  files:(string * string) list ->
  unit ->
  t
(** Issue a manifest over (filename, bytes) pairs; EE-signed like a ROA. *)

val find : t -> string -> entry option
