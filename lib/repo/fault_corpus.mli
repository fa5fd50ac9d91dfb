(** The empirical RP fault corpus (SNIPPETS.md) as a checked-in weight
    table with a seeded weighted sampler.

    Real relying parties face a background of expired CRLs, missing
    manifests, seqnum gaps, expired / forward-dated certificates, RFC 3779
    violations and dead transports — not just named adversaries.  The table
    encodes the survey's observation counts; {!sample} draws categories in
    proportion, so a fault-mix run reproduces the error distribution the
    real RPKI exhibits.  {!Fault_mix} turns sampled categories into actual
    authority- and transport-side faults. *)

type category =
  | Expired_crl            (** 47x "CRL has expired" *)
  | Missing_manifest       (** 20x "no valid manifest available" *)
  | Seqnum_gap             (** 18x "seqnum gap detected" *)
  | Expired_cert           (** 13x "certificate has expired" *)
  | Not_yet_valid_cert     (** 7x "not yet valid" *)
  | Rfc3779_violation      (** 7x "RFC 3779 resource not subset of parent's" *)
  | Manifest_regression    (** 2x "manifest numbers lower than expected" *)
  | Dns_failure            (** "no address associated with name" *)
  | Connect_refused        (** "connect refused" / no route to host *)
  | Connect_timeout        (** "connect timeout" *)
  | Cross_origin_redirect  (** "cross origin redirect to ..." *)

val weights : (category * int) list
(** The corpus table: one row per category, observation counts verbatim. *)

val total_weight : int

val to_string : category -> string

val expected_frequency : category -> float
(** The category's weight as a fraction of {!total_weight} — what a large
    sample's empirical frequency converges to. *)

val sample : Rpki_util.Rng.t -> category
(** One weighted draw.  Consumes exactly one [Rng.int] call, so callers can
    reason about stream alignment; a fixed seed gives a fixed sequence. *)
