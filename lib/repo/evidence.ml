(* Signed fork/rollback evidence bundles: a portable DER container for the
   two-sided cryptographic evidence a Gossip alarm carries, so a detected
   manipulation can be exported, shipped to an operator or registry, and
   re-verified offline by someone who trusts neither the vantages nor the
   tool that raised the alarm.

   Layout (strict DER, decodable by anyone with the Rpki_asn subset):

     Evidence ::= SEQUENCE {
       magic      UTF8String ("rpki-evidence-v1"),
       kind       UTF8String ("fork" | "rollback"),
       uri        UTF8String,
       serial     INTEGER,          -- fork: the contested manifest number;
                                    -- rollback: 0 (the serials are in the obs)
       left       Attested,         -- fork: receiver side; rollback: earlier
       right      Attested,         -- fork: peer side;     rollback: later
       keys       SEQUENCE OF Key   -- vantage tree-head keys to verify under
     }
     Attested ::= SEQUENCE {
       vantage    UTF8String,
       observation OCTET STRING,    -- Log.encode_observation
       index      INTEGER,
       head       OCTET STRING,     -- Log.encode_head
       signature  OCTET STRING,
       proof      SEQUENCE OF OCTET STRING
     }
     Key ::= SEQUENCE { vantage UTF8String, n OCTET STRING, e OCTET STRING }

   The bundle embeds the public keys it claims the heads verify under; the
   offline verifier must still decide whether to trust those keys (e.g.
   compare against out-of-band vantage key fingerprints).  [verify] answers
   the purely cryptographic question: under the embedded keys, is this
   bundle genuine two-sided evidence?  It reuses {!Gossip.verify_fork}
   unchanged, so the CLI and the gossip layer cannot drift apart. *)

module Log = Rpki_transparency.Log
module Der = Rpki_asn.Der
open Rpki_crypto

let magic = "rpki-evidence-v1"

exception Bundle_error of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bundle_error s)) fmt

let attested_to_der (a : Gossip.attested) =
  Der.Sequence
    [ Der.Utf8 a.Gossip.att_vantage;
      Der.Octet_string (Log.encode_observation a.Gossip.att_obs);
      Der.int_ a.Gossip.att_index;
      Der.Octet_string (Log.encode_head a.Gossip.att_head.Log.sh_head);
      Der.Octet_string a.Gossip.att_head.Log.sh_sig;
      Der.Sequence (List.map (fun h -> Der.Octet_string h) a.Gossip.att_proof) ]

let attested_of_der = function
  | Der.Sequence
      [ Der.Utf8 vantage; Der.Octet_string obs; (Der.Integer _ as index);
        Der.Octet_string head; Der.Octet_string signature; Der.Sequence proof ] ->
    let obs =
      match Log.decode_observation obs with
      | Some o -> o
      | None -> bad "malformed observation for %s" vantage
    in
    let head =
      match Log.decode_head head with
      | Some h -> h
      | None -> bad "malformed head for %s" vantage
    in
    let proof =
      List.map
        (function Der.Octet_string h -> h | _ -> bad "malformed proof node")
        proof
    in
    { Gossip.att_vantage = vantage; att_obs = obs; att_index = Der.to_int_exn index;
      att_head = { Log.sh_head = head; sh_sig = signature }; att_proof = proof }
  | _ -> bad "attested record is not the expected sextuple"

let key_to_der (vantage, (key : Rsa.public)) =
  Der.Sequence
    [ Der.Utf8 vantage;
      Der.Octet_string (Rpki_bignum.Nat.to_bytes_be key.Rsa.n);
      Der.Octet_string (Rpki_bignum.Nat.to_bytes_be key.Rsa.e) ]

let key_of_der = function
  | Der.Sequence [ Der.Utf8 vantage; Der.Octet_string n; Der.Octet_string e ] ->
    (vantage, Rsa.public ~n:(Rpki_bignum.Nat.of_bytes_be n) ~e:(Rpki_bignum.Nat.of_bytes_be e))
  | _ -> bad "key record is not the expected triple"

(* The two attested sides and headline (uri, serial, kind) of an alarm, if
   it is the portable-evidence kind. *)
let sides = function
  | Gossip.Fork { fork_uri; fork_serial; left; right } ->
    Some ("fork", fork_uri, fork_serial, left, right)
  | Gossip.Rollback { rb_uri; rb_earlier; rb_later } ->
    Some ("rollback", rb_uri, 0, rb_earlier, rb_later)
  | Gossip.Inconsistent_heads _ | Gossip.Bad_head_signature _ | Gossip.Bad_inclusion _
  | Gossip.Log_reset _ -> None

let export ~key_of alarm =
  match sides alarm with
  | None -> Error "only fork and rollback alarms carry portable evidence"
  | Some (kind, uri, serial, left, right) -> (
    let vantages =
      List.sort_uniq compare [ left.Gossip.att_vantage; right.Gossip.att_vantage ]
    in
    let keys =
      List.filter_map
        (fun v -> Option.map (fun k -> (v, k)) (key_of v))
        vantages
    in
    if List.length keys <> List.length vantages then
      Error "missing tree-head key for a vantage in the evidence"
    else
      Ok
        (Der.encode
           (Der.Sequence
              [ Der.Utf8 magic; Der.Utf8 kind; Der.Utf8 uri; Der.int_ serial;
                attested_to_der left; attested_to_der right;
                Der.Sequence (List.map key_to_der keys) ])))

(* Decode a bundle back into the alarm it was exported from plus the
   embedded keys. *)
let import bytes =
  match Der.decode bytes with
  | Error e -> Error e
  | Ok
      (Der.Sequence
        [ Der.Utf8 m; Der.Utf8 kind; Der.Utf8 uri; (Der.Integer _ as serial);
          (Der.Sequence _ as left); (Der.Sequence _ as right); Der.Sequence keys ])
    when String.equal m magic -> (
    try
      let left = attested_of_der left in
      let right = attested_of_der right in
      let keys = List.map key_of_der keys in
      let alarm =
        match kind with
        | "fork" ->
          Gossip.Fork
            { fork_uri = uri; fork_serial = Der.to_int_exn serial; left; right }
        | "rollback" -> Gossip.Rollback { rb_uri = uri; rb_earlier = left; rb_later = right }
        | other -> bad "unknown evidence kind %S" other
      in
      Ok (alarm, keys)
    with
    | Bundle_error why -> Error why
    | Der.Decode_error why -> Error why)
  | Ok _ -> Error "not a rpki-evidence container"

(* Offline verification: decode, then re-run the gossip layer's from-scratch
   evidence check under the embedded keys. *)
let verify bytes =
  match import bytes with
  | Error e -> Error e
  | Ok (alarm, keys) ->
    if Gossip.verify_fork ~key_of:(fun v -> List.assoc_opt v keys) alarm then
      Ok alarm
    else Error "evidence does not verify under its embedded keys"
