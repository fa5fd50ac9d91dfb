(* The snapshot codec: a deterministic, checksummed container built on the
   strict DER encoder from [Rpki_asn].

   A snapshot is
     SEQUENCE {
       UTF8String  "rpki-persist-v1",
       INTEGER     generation,
       INTEGER     saved_at,
       OCTET STRING body,          -- concatenated records
       OCTET STRING digest         -- SHA-256 over generation | saved_at | body
     }
   and each record in [body] is
     SEQUENCE {
       UTF8String  kind,
       OCTET STRING payload,
       OCTET STRING SHA-256(payload)
     }

   The outer digest covers the generation and timestamp, not just the body:
   a flipped bit anywhere in the file must fail closed, including one that
   would silently age or rejuvenate the snapshot.  Decoding pattern-matches
   constructors exactly — [Der.to_string_exn] accepts both UTF8String and
   OCTET STRING, which would let a tag flip (0x0c <-> 0x04) slip through a
   lenient projector. *)

open Rpki_crypto
open Rpki_asn

let magic = "rpki-persist-v1"

type record = { r_kind : string; r_payload : string }

type snapshot = { s_generation : int; s_saved_at : int; s_records : record list }

type error =
  | Bad_magic of string
  | Checksum_mismatch of string
  | Malformed of string

let error_to_string = function
  | Bad_magic m -> Printf.sprintf "bad magic %S" m
  | Checksum_mismatch what -> Printf.sprintf "checksum mismatch (%s)" what
  | Malformed why -> Printf.sprintf "malformed snapshot: %s" why

let overall_digest ~generation ~saved_at body =
  Sha256.digest_list
    [ string_of_int generation; ":"; string_of_int saved_at; ":"; body ]

let encode_record r =
  Der.encode
    (Der.Sequence
       [ Der.Utf8 r.r_kind;
         Der.Octet_string r.r_payload;
         Der.Octet_string (Sha256.digest r.r_payload) ])

let encode snap =
  let body = String.concat "" (List.map encode_record snap.s_records) in
  Der.encode
    (Der.Sequence
       [ Der.Utf8 magic;
         Der.int_ snap.s_generation;
         Der.int_ snap.s_saved_at;
         Der.Octet_string body;
         Der.Octet_string
           (overall_digest ~generation:snap.s_generation ~saved_at:snap.s_saved_at
              body) ])

let decode_record = function
  | Der.Sequence [ Der.Utf8 kind; Der.Octet_string payload; Der.Octet_string sum ]
    ->
    if not (String.equal sum (Sha256.digest payload)) then
      Error (Checksum_mismatch (Printf.sprintf "record %S" kind))
    else Ok { r_kind = kind; r_payload = payload }
  | v ->
    Error
      (Malformed (Format.asprintf "record is not a checksummed triple: %a" Der.pp v))

let decode bytes =
  match Der.decode bytes with
  | Error e -> Error (Malformed e)
  | Ok
      (Der.Sequence
        [ Der.Utf8 m; Der.Integer _ as gen; Der.Integer _ as at;
          Der.Octet_string body; Der.Octet_string sum ]) -> (
    if not (String.equal m magic) then Error (Bad_magic m)
    else
      match (Der.to_int_exn gen, Der.to_int_exn at) with
      | exception Der.Decode_error e -> Error (Malformed e)
      | generation, saved_at ->
        if not (String.equal sum (overall_digest ~generation ~saved_at body)) then
          Error (Checksum_mismatch "snapshot")
        else (
          match Der.decode_all body with
          | exception Der.Decode_error e -> Error (Malformed e)
          | values ->
            let rec go acc = function
              | [] -> Ok { s_generation = generation; s_saved_at = saved_at;
                           s_records = List.rev acc }
              | v :: rest -> (
                match decode_record v with
                | Ok r -> go (r :: acc) rest
                | Error e -> Error e)
            in
            go [] values))
  | Ok v ->
    Error (Malformed (Format.asprintf "not a rpki-persist container: %a" Der.pp v))
