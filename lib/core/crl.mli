(** Certificate revocation lists (RFC 5280 profile, simplified), signed
    directly by the issuing CA.

    Side Effect 1 of the paper: revocation doubles as unilateral reclamation
    of address space.  Side Effect 2: deletion from the repository achieves
    the same end {e without} leaving a CRL trace — the monitor library keys
    on exactly this distinction. *)

open Rpki_crypto

type t = {
  issuer : string;
  this_update : Rtime.t;
  next_update : Rtime.t;
  revoked_serials : int list; (** sorted ascending, deduplicated *)
  signature : string;
}

val tbs_bytes : t -> string
val encode : t -> string
val decode : string -> (t, string) result

val issue :
  ca_key:Rsa.private_ ->
  issuer:string ->
  this_update:Rtime.t ->
  next_update:Rtime.t ->
  revoked_serials:int list ->
  t

val revokes : t -> int -> bool
