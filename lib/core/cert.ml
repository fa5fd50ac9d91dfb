(* Resource certificates (RFC 6487 profile, simplified).

   An RC binds a subject's public key to a resource bundle and carries the
   URIs that stitch the distributed RPKI together: where the subject
   publishes (SIA), where the issuer's certificate lives (AIA) and where the
   issuer's CRL lives (CRL-DP).  EE certificates are the same structure with
   [is_ca = false]. *)

open Rpki_crypto
open Rpki_asn

type t = {
  serial : int;
  issuer : string;  (* issuer's subject name *)
  subject : string;
  public_key : Rsa.public;
  resources : Resources.t;
  not_before : Rtime.t;
  not_after : Rtime.t;
  is_ca : bool;
  crl_uri : string option;      (* where the issuer publishes revocations *)
  aia_uri : string option;      (* where this certificate's issuer cert lives *)
  repo_uri : string option;     (* SIA: the subject's publication point *)
  manifest_uri : string option; (* SIA: the subject's manifest *)
  signature : string;           (* issuer's signature over the TBS encoding *)
}

let der_of_opt = function None -> Der.Context (0, []) | Some s -> Der.Context (0, [ Der.Utf8 s ])

let opt_of_der = function
  | Der.Context (0, []) -> None
  | Der.Context (0, [ Der.Utf8 s ]) -> Some s
  | _ -> Der.decode_error "bad optional URI"

let der_of_key (k : Rsa.public) = Der.Sequence [ Der.Integer k.Rsa.n; Der.Integer k.Rsa.e ]

let key_of_der = function
  | Der.Sequence [ Der.Integer n; Der.Integer e ] -> Rsa.public ~n ~e
  | _ -> Der.decode_error "bad public key"

(* The to-be-signed portion; the signature is computed over these bytes. *)
let tbs_der t =
  Der.Sequence
    [ Der.int_ 2; (* version, constant for this profile *)
      Der.int_ t.serial;
      Der.Utf8 t.issuer;
      Der.Utf8 t.subject;
      Der.Sequence [ Der.int_ t.not_before; Der.int_ t.not_after ];
      der_of_key t.public_key;
      Der.Boolean t.is_ca;
      Resources.to_der t.resources;
      der_of_opt t.crl_uri;
      der_of_opt t.aia_uri;
      der_of_opt t.repo_uri;
      der_of_opt t.manifest_uri ]

let tbs_bytes t = Der.encode (tbs_der t)

let to_der t = Der.Sequence [ tbs_der t; Der.Bit_string t.signature ]
let encode t = Der.encode (to_der t)

let of_der d =
  match d with
  | Der.Sequence
      [ Der.Sequence
          [ version; serial; Der.Utf8 issuer; Der.Utf8 subject;
            Der.Sequence [ nb; na ]; key; Der.Boolean is_ca; resources;
            crl_uri; aia_uri; repo_uri; manifest_uri ];
        Der.Bit_string signature ] ->
    if Der.to_int_exn version <> 2 then Der.decode_error "bad certificate version";
    { serial = Der.to_int_exn serial;
      issuer;
      subject;
      public_key = key_of_der key;
      resources = Resources.of_der resources;
      not_before = Der.to_int_exn nb;
      not_after = Der.to_int_exn na;
      is_ca;
      crl_uri = opt_of_der crl_uri;
      aia_uri = opt_of_der aia_uri;
      repo_uri = opt_of_der repo_uri;
      manifest_uri = opt_of_der manifest_uri;
      signature }
  | _ -> Der.decode_error "bad certificate structure"

let decode s =
  match Der.decode s with
  | Error e -> Error e
  | Ok d -> ( try Ok (of_der d) with Der.Decode_error m -> Error m)

(* Issue (sign) a certificate with the issuer's private key.  All issuance
   in the system funnels through here. *)
let issue ~issuer_key ~serial ~issuer ~subject ~public_key ~resources ~not_before ~not_after
    ~is_ca ?crl_uri ?aia_uri ?repo_uri ?manifest_uri () =
  let unsigned =
    { serial; issuer; subject; public_key; resources; not_before; not_after; is_ca;
      crl_uri; aia_uri; repo_uri; manifest_uri; signature = "" }
  in
  { unsigned with signature = Rsa.sign ~key:issuer_key (tbs_bytes unsigned) }

(* Self-signed trust-anchor certificate. *)
let self_signed ~key ~subject ~resources ~not_before ~not_after ?repo_uri ?manifest_uri () =
  issue ~issuer_key:key.Rsa.private_ ~serial:1 ~issuer:subject ~subject
    ~public_key:key.Rsa.public ~resources ~not_before ~not_after ~is_ca:true ?repo_uri
    ?manifest_uri ()

let key_id t = Rsa.key_id t.public_key

(* Identity modulo the signature: used by the monitor to tell "reissued with
   different contents" from "re-signed". *)
let same_contents a b =
  a.serial = b.serial && a.issuer = b.issuer && a.subject = b.subject
  && Rsa.equal_public a.public_key b.public_key
  && Resources.equal a.resources b.resources
  && a.not_before = b.not_before && a.not_after = b.not_after && a.is_ca = b.is_ca
