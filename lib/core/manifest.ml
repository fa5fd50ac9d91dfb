(* Manifests (RFC 6486 profile, simplified).

   A manifest lists every file at a publication point together with its
   SHA-256 hash, so a relying party can detect deletions and corruptions —
   which is precisely what makes the paper's "stealthy" manipulations a
   matter of *policy* rather than detectability: the RFCs do not say what to
   do when the manifest check fails (Section 4, "a difficult tradeoff"). *)

open Rpki_crypto
open Rpki_asn

type entry = { filename : string; hash : string (* SHA-256, raw bytes *) }

type t = {
  manifest_number : int;
  this_update : Rtime.t;
  next_update : Rtime.t;
  entries : entry list; (* sorted by filename *)
  ee : Cert.t;
  signature : string;
}

let content_der ~manifest_number ~this_update ~next_update ~entries =
  Der.Sequence
    [ Der.int_ manifest_number;
      Der.int_ this_update;
      Der.int_ next_update;
      Der.Sequence
        (List.map
           (fun e -> Der.Sequence [ Der.Utf8 e.filename; Der.Octet_string e.hash ])
           entries) ]

let content_bytes t =
  Der.encode
    (content_der ~manifest_number:t.manifest_number ~this_update:t.this_update
       ~next_update:t.next_update ~entries:t.entries)

let to_der t =
  Der.Sequence
    [ content_der ~manifest_number:t.manifest_number ~this_update:t.this_update
        ~next_update:t.next_update ~entries:t.entries;
      Cert.to_der t.ee;
      Der.Bit_string t.signature ]

let encode t = Der.encode (to_der t)

let of_der = function
  | Der.Sequence [ Der.Sequence [ mn; tu; nu; Der.Sequence files ]; ee; Der.Bit_string signature ] ->
    let dec = function
      | Der.Sequence [ Der.Utf8 filename; Der.Octet_string hash ] -> { filename; hash }
      | _ -> Der.decode_error "bad manifest entry"
    in
    { manifest_number = Der.to_int_exn mn;
      this_update = Der.to_int_exn tu;
      next_update = Der.to_int_exn nu;
      entries = List.map dec files;
      ee = Cert.of_der ee;
      signature }
  | _ -> Der.decode_error "bad manifest structure"

let decode s =
  match Der.decode s with
  | Error e -> Error e
  | Ok d -> ( try Ok (of_der d) with Der.Decode_error m -> Error m)

let entry_of_file ~filename ~contents = { filename; hash = Sha256.digest contents }

(* Issue a manifest over a list of (filename, file bytes).  Like a ROA, the
   manifest is signed by a fresh EE certificate; the EE carries the CA's
   resources trimmed to empty since a manifest speaks for no address space. *)
let issue ~ca_key ~ca_subject ~serial ~rng ?ee_key
    ~manifest_number ~this_update ~next_update ~files () =
  let entries =
    List.sort
      (fun a b -> String.compare a.filename b.filename)
      (List.map (fun (filename, contents) -> entry_of_file ~filename ~contents) files)
  in
  let ee_key = match ee_key with Some k -> k | None -> Rsa.generate rng in
  let ee =
    Cert.issue ~issuer_key:ca_key ~serial ~issuer:ca_subject
      ~subject:(Printf.sprintf "%s-mft-ee-%d" ca_subject serial)
      ~public_key:ee_key.Rsa.public ~resources:Resources.empty ~not_before:this_update
      ~not_after:next_update ~is_ca:false ()
  in
  let content = Der.encode (content_der ~manifest_number ~this_update ~next_update ~entries) in
  { manifest_number; this_update; next_update; entries; ee;
    signature = Rsa.sign ~key:ee_key.Rsa.private_ content }

let find t filename = List.find_opt (fun e -> e.filename = filename) t.entries
