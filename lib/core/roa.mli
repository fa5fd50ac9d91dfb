(** Route Origin Authorizations (RFC 6482 profile, simplified).

    A ROA authorizes one AS to originate a list of prefixes, each with an
    optional maximum length.  As in the real RPKI, the content is signed by
    an end-entity certificate which the issuing CA signs in turn; the EE's
    resources must cover the ROA's prefixes. *)

open Rpki_ip
open Rpki_crypto

type v4_entry = { prefix : V4.Prefix.t; max_len : int }
type v6_entry = { prefix6 : V6.Prefix.t; max_len6 : int }

type t = {
  asid : int;
  v4_entries : v4_entry list;
  v6_entries : v6_entry list;
  ee : Cert.t;         (** the one-time-use end-entity certificate *)
  signature : string;  (** EE-key signature over the content bytes *)
}

val entry : ?max_len:int -> V4.Prefix.t -> v4_entry
(** [max_len] defaults to the prefix length. Raises [Invalid_argument] when
    out of [len..32]. *)

val entry6 : ?max_len:int -> V6.Prefix.t -> v6_entry

val resources : t -> Resources.t
(** The address space the ROA speaks for — what a whacking manipulator must
    carve out of the target's certification path. *)

val content_bytes : t -> string
(** The bytes the EE signature covers. *)

val encode : t -> string
val decode : string -> (t, string) result

val issue :
  ca_key:Rsa.private_ ->
  ca_subject:string ->
  serial:int ->
  rng:Rpki_util.Rng.t ->
  ?ee_key:Rsa.keypair ->
  asid:int ->
  v4_entries:v4_entry list ->
  ?v6_entries:v6_entry list ->
  not_before:Rtime.t ->
  not_after:Rtime.t ->
  ?crl_uri:string ->
  ?aia_uri:string ->
  unit ->
  t
(** Issue a ROA: mint an EE keypair (or reuse [ee_key]), certify it for
    exactly the ROA's address space, and sign the content with it. *)

val to_string : t -> string
