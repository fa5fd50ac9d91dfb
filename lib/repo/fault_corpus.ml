(* The empirical RP fault corpus, as a checked-in weight table.

   SNIPPETS.md carries a field survey of what real relying parties actually
   hit: expired CRLs by the dozen, missing manifests, manifest seqnum gaps,
   expired and forward-dated certificates, RFC 3779 violations, the odd
   manifest-number regression — plus the transport outcomes (DNS failures,
   refused and timed-out connects, a cross-origin redirect).  This module
   encodes those observation counts verbatim and samples categories in
   proportion, so fault-mix runs exercise the error distribution the real
   RPKI exhibits rather than a uniform or adversary-shaped one. *)

type category =
  | Expired_crl            (* "CRL has expired" *)
  | Missing_manifest       (* "no valid manifest available" *)
  | Seqnum_gap             (* "seqnum gap detected" *)
  | Expired_cert           (* "certificate has expired" *)
  | Not_yet_valid_cert     (* "not yet valid" *)
  | Rfc3779_violation      (* "RFC 3779 resource not subset of parent's" *)
  | Manifest_regression    (* "manifest numbers lower than expected" *)
  | Dns_failure            (* "no address associated with name" *)
  | Connect_refused        (* "connect refused" *)
  | Connect_timeout        (* "connect timeout" *)
  | Cross_origin_redirect  (* "cross origin redirect to ..." *)

(* Observation counts from the corpus, one row per category.  The
   authority-side counts are the "47+ instances" figures; the transport
   rows count the concrete hosts listed under each heading. *)
let weights =
  [
    (Expired_crl, 47);
    (Missing_manifest, 20);
    (Seqnum_gap, 18);
    (Expired_cert, 13);
    (Not_yet_valid_cert, 7);
    (Rfc3779_violation, 7);
    (Manifest_regression, 2);
    (Dns_failure, 3);
    (Connect_refused, 4);
    (Connect_timeout, 4);
    (Cross_origin_redirect, 1);
  ]

let total_weight = List.fold_left (fun acc (_, w) -> acc + w) 0 weights

let to_string = function
  | Expired_crl -> "expired-crl"
  | Missing_manifest -> "missing-manifest"
  | Seqnum_gap -> "seqnum-gap"
  | Expired_cert -> "expired-cert"
  | Not_yet_valid_cert -> "not-yet-valid"
  | Rfc3779_violation -> "rfc3779-violation"
  | Manifest_regression -> "manifest-regression"
  | Dns_failure -> "dns-failure"
  | Connect_refused -> "connect-refused"
  | Connect_timeout -> "connect-timeout"
  | Cross_origin_redirect -> "cross-origin-redirect"

let expected_frequency c =
  match List.assoc_opt c weights with
  | Some w -> float_of_int w /. float_of_int total_weight
  | None -> 0.

(* Weighted draw by cumulative walk over the table, in table order — one
   [Rng.int] consumption per call, so streams are easy to reason about. *)
let sample rng =
  let r = Rpki_util.Rng.int rng total_weight in
  let rec walk acc = function
    | [] -> assert false
    | (c, w) :: rest -> if r < acc + w then c else walk (acc + w) rest
  in
  walk 0 weights
