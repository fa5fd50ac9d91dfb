(* Route Origin Authorizations (RFC 6482 profile, simplified).

   A ROA authorizes one AS to originate a list of prefixes, each with an
   optional maximum length.  As in the real RPKI, the ROA content is signed
   by a one-time-use EE certificate which the issuing CA signs in turn; the
   EE's resources must cover the ROA's prefixes. *)

open Rpki_ip
open Rpki_crypto
open Rpki_asn

type v4_entry = { prefix : V4.Prefix.t; max_len : int }
type v6_entry = { prefix6 : V6.Prefix.t; max_len6 : int }

type t = {
  asid : int;
  v4_entries : v4_entry list;
  v6_entries : v6_entry list;
  ee : Cert.t;          (* the one-time-use end-entity certificate *)
  signature : string;   (* EE-key signature over the content encoding *)
}

let entry ?max_len prefix =
  let max_len = Option.value max_len ~default:(V4.Prefix.len prefix) in
  if max_len < V4.Prefix.len prefix || max_len > 32 then invalid_arg "Roa.entry: bad max_len";
  { prefix; max_len }

let entry6 ?max_len prefix6 =
  let max_len6 = Option.value max_len ~default:(V6.Prefix.len prefix6) in
  if max_len6 < V6.Prefix.len prefix6 || max_len6 > 128 then invalid_arg "Roa.entry6: bad max_len";
  { prefix6; max_len6 }

(* The address space a ROA speaks for — what a whacking manipulator must
   carve out of the target's certification path. *)
let resources t =
  Resources.make
    ~v4:(V4.Set.of_prefixes (List.map (fun e -> e.prefix) t.v4_entries))
    ~v6:(V6.Set.of_prefixes (List.map (fun e -> e.prefix6) t.v6_entries))
    ()

let content_der ~asid ~v4_entries ~v6_entries =
  let enc_v4 (e : v4_entry) =
    Der.Sequence
      [ Der.int_ (V4.Prefix.addr e.prefix); Der.int_ (V4.Prefix.len e.prefix); Der.int_ e.max_len ]
  in
  let enc_v6 (e : v6_entry) =
    Der.Sequence
      [ Der.Integer (Resources.nat_of_v6 (V6.Prefix.addr e.prefix6));
        Der.int_ (V6.Prefix.len e.prefix6); Der.int_ e.max_len6 ]
  in
  Der.Sequence
    [ Der.int_ asid;
      Der.Context (1, List.map enc_v4 v4_entries);
      Der.Context (2, List.map enc_v6 v6_entries) ]

let content_bytes t = Der.encode (content_der ~asid:t.asid ~v4_entries:t.v4_entries ~v6_entries:t.v6_entries)

let to_der t =
  Der.Sequence
    [ content_der ~asid:t.asid ~v4_entries:t.v4_entries ~v6_entries:t.v6_entries;
      Cert.to_der t.ee;
      Der.Bit_string t.signature ]

let encode t = Der.encode (to_der t)

let of_der d =
  match d with
  | Der.Sequence [ Der.Sequence [ asid; Der.Context (1, v4s); Der.Context (2, v6s) ]; ee; Der.Bit_string signature ] ->
    (* checked here, before the raising constructors: maxLength is
       validation's to judge (a typed issue), the prefix length is not *)
    let length ~bits d =
      let len = Der.to_int_exn d in
      if len > bits then Der.decode_error "prefix length %d exceeds %d" len bits;
      len
    in
    let dec_v4 = function
      | Der.Sequence [ addr; len; ml ] ->
        { prefix = V4.Prefix.make (Resources.uint32_of_der addr) (length ~bits:32 len);
          max_len = Der.to_int_exn ml }
      | _ -> Der.decode_error "bad ROA v4 entry"
    in
    let dec_v6 = function
      | Der.Sequence [ Der.Integer addr; len; ml ] ->
        { prefix6 = V6.Prefix.make (Resources.v6_of_nat addr) (length ~bits:128 len);
          max_len6 = Der.to_int_exn ml }
      | _ -> Der.decode_error "bad ROA v6 entry"
    in
    { asid = Resources.uint32_of_der asid;
      v4_entries = List.map dec_v4 v4s;
      v6_entries = List.map dec_v6 v6s;
      ee = Cert.of_der ee;
      signature }
  | _ -> Der.decode_error "bad ROA structure"

let decode s =
  match Der.decode s with
  | Error e -> Error e
  | Ok d -> ( try Ok (of_der d) with Der.Decode_error m -> Error m)

(* Issue a ROA: mint an EE keypair (or reuse a caller-supplied one), have the
   CA certify it for exactly the ROA's address space, and sign the content
   with the EE key. *)
let issue ~ca_key ~ca_subject ~serial ~rng ?ee_key ~asid
    ~v4_entries ?(v6_entries = []) ~not_before ~not_after ?crl_uri ?aia_uri () =
  let ee_key = match ee_key with Some k -> k | None -> Rsa.generate rng in
  let resources =
    Resources.make
      ~v4:(V4.Set.of_prefixes (List.map (fun e -> e.prefix) v4_entries))
      ~v6:(V6.Set.of_prefixes (List.map (fun e -> e.prefix6) v6_entries))
      ()
  in
  let ee =
    Cert.issue ~issuer_key:ca_key ~serial ~issuer:ca_subject
      ~subject:(Printf.sprintf "%s-roa-ee-%d" ca_subject serial)
      ~public_key:ee_key.Rsa.public ~resources ~not_before ~not_after ~is_ca:false ?crl_uri
      ?aia_uri ()
  in
  let content = Der.encode (content_der ~asid ~v4_entries ~v6_entries) in
  { asid; v4_entries; v6_entries; ee; signature = Rsa.sign ~key:ee_key.Rsa.private_ content }

let pp_v4_entry fmt (e : v4_entry) =
  if e.max_len = V4.Prefix.len e.prefix then V4.Prefix.pp fmt e.prefix
  else Format.fprintf fmt "%a-%d" V4.Prefix.pp e.prefix e.max_len

let pp fmt t =
  Format.fprintf fmt "ROA (%s, AS%d)"
    (String.concat ", "
       (List.map (Format.asprintf "%a" pp_v4_entry) t.v4_entries
       @ List.map (fun (e : v6_entry) -> Format.asprintf "%a-%d" V6.Prefix.pp e.prefix6 e.max_len6) t.v6_entries))
    t.asid

let to_string t = Format.asprintf "%a" pp t
