(* Certificate revocation lists (RFC 5280 profile, simplified).

   Signed directly by the issuing CA.  The paper's Side Effect 1 is that
   revocation doubles as unilateral reclamation of address space; Side
   Effect 2 is that deletion from the repository achieves the same end
   *without* leaving a CRL trace — the monitor library exploits exactly this
   distinction. *)

open Rpki_crypto
open Rpki_asn

type t = {
  issuer : string;
  this_update : Rtime.t;
  next_update : Rtime.t;
  revoked_serials : int list; (* sorted ascending *)
  signature : string;
}

let tbs_der t =
  Der.Sequence
    [ Der.Utf8 t.issuer;
      Der.int_ t.this_update;
      Der.int_ t.next_update;
      Der.Sequence (List.map Der.int_ t.revoked_serials) ]

let tbs_bytes t = Der.encode (tbs_der t)
let to_der t = Der.Sequence [ tbs_der t; Der.Bit_string t.signature ]
let encode t = Der.encode (to_der t)

let of_der = function
  | Der.Sequence
      [ Der.Sequence [ Der.Utf8 issuer; tu; nu; Der.Sequence serials ]; Der.Bit_string signature ] ->
    { issuer;
      this_update = Der.to_int_exn tu;
      next_update = Der.to_int_exn nu;
      revoked_serials = List.map Der.to_int_exn serials;
      signature }
  | _ -> Der.decode_error "bad CRL structure"

let decode s =
  match Der.decode s with
  | Error e -> Error e
  | Ok d -> ( try Ok (of_der d) with Der.Decode_error m -> Error m)

let issue ~ca_key ~issuer ~this_update ~next_update ~revoked_serials =
  let revoked_serials = List.sort_uniq Int.compare revoked_serials in
  let unsigned = { issuer; this_update; next_update; revoked_serials; signature = "" } in
  { unsigned with signature = Rsa.sign ~key:ca_key (tbs_bytes unsigned) }

let revokes t serial = List.mem serial t.revoked_serials
