(* The transparency log: an append-only, Merkle-tree-backed history of
   publication-point states (see the .mli for the detection story).

   Leaves are canonical length-prefixed encodings of observation records,
   so a leaf is content-addressed: two vantages that observed the same
   state produce byte-identical leaves, and any difference in what an
   authority served them shows up as differing leaf hashes under the same
   (uri, manifest number) key. *)

open Rpki_crypto

type observation = {
  ob_uri : string;
  ob_serial : int;
  ob_manifest_hash : string;
  ob_vrp_hash : string;
  ob_snapshot_fp : string;
  ob_at : int;
}

(* Canonical encoding: "rpki-obs-v1" then each field length-prefixed with a
   fixed-width decimal, integers in decimal.  Unambiguous and stable — the
   Merkle leaf hash depends on nothing else.  The digits are written by
   hand: this runs for every leaf a gossip receiver checks, and a Printf
   costs more than the rest of the encoding.  A length of nine digits or
   more is written in full, as "%08d" would. *)
let encode_field b s =
  let n = String.length s in
  if n >= 100_000_000 then Buffer.add_string b (string_of_int n)
  else begin
    let d = ref 10_000_000 in
    while !d > 0 do
      Buffer.add_char b (Char.unsafe_chr (48 + (n / !d mod 10)));
      d := !d / 10
    done
  end;
  Buffer.add_char b ':';
  Buffer.add_string b s

let encode_observation o =
  let b = Buffer.create 128 in
  Buffer.add_string b "rpki-obs-v1\n";
  encode_field b o.ob_uri;
  encode_field b (string_of_int o.ob_serial);
  encode_field b o.ob_manifest_hash;
  encode_field b o.ob_vrp_hash;
  encode_field b o.ob_snapshot_fp;
  encode_field b (string_of_int o.ob_at);
  Buffer.contents b

(* The one reader both decoders share: [magic], then exactly [count]
   fields, each an eight-ASCII-digit length, a colon and that many bytes,
   and nothing after.  Never raises. *)
let decode_fields ~magic ~count s =
  let n = String.length s in
  let rec len_at pos k acc =
    if k = 8 then Some acc
    else
      match s.[pos + k] with
      | '0' .. '9' as c -> len_at pos (k + 1) ((10 * acc) + Char.code c - Char.code '0')
      | _ -> None
  in
  let rec fields pos k acc =
    if k = 0 then if pos = n then Some (List.rev acc) else None
    else if pos + 9 > n || s.[pos + 8] <> ':' then None
    else
      match len_at pos 0 0 with
      | Some len when pos + 9 + len <= n ->
        fields (pos + 9 + len) (k - 1) (String.sub s (pos + 9) len :: acc)
      | _ -> None
  in
  let m = String.length magic in
  if n >= m && String.equal (String.sub s 0 m) magic then fields m count [] else None

(* A decode stands only if encoding its result gives back the input, so
   every accepted encoding is the canonical one (no "+1", "01" or "0x1"
   in an integer field). *)
let canonical encode s v = if String.equal (encode v) s then Some v else None

let decode_observation s =
  match decode_fields ~magic:"rpki-obs-v1\n" ~count:6 s with
  | Some [ ob_uri; serial; ob_manifest_hash; ob_vrp_hash; ob_snapshot_fp; at ] -> (
    match (int_of_string_opt serial, int_of_string_opt at) with
    | Some ob_serial, Some ob_at ->
      canonical encode_observation s
        { ob_uri; ob_serial; ob_manifest_hash; ob_vrp_hash; ob_snapshot_fp; ob_at }
    | _ -> None)
  | _ -> None

(* State equality: everything but the observation time. *)
let observation_equal a b =
  String.equal a.ob_uri b.ob_uri
  && a.ob_serial = b.ob_serial
  && String.equal a.ob_manifest_hash b.ob_manifest_hash
  && String.equal a.ob_vrp_hash b.ob_vrp_hash
  && String.equal a.ob_snapshot_fp b.ob_snapshot_fp

let short h = if h = "" then "-" else Rpki_util.Hex.of_string (String.sub h 0 4)

let observation_to_string o =
  Printf.sprintf "%s #%d mft=%s vrps=%s fp=%s @t%d" o.ob_uri o.ob_serial
    (short o.ob_manifest_hash) (short o.ob_vrp_hash) (short o.ob_snapshot_fp) o.ob_at

type t = {
  id : string;
  tree : Merkle.t;
  obs : (int, observation) Hashtbl.t;            (* index -> record *)
  last_by_uri : (string, observation) Hashtbl.t; (* dedup key *)
  by_key : (string * int, int) Hashtbl.t;        (* (uri, serial) -> first index *)
}

let create ~log_id =
  { id = log_id; tree = Merkle.create (); obs = Hashtbl.create 64;
    last_by_uri = Hashtbl.create 16; by_key = Hashtbl.create 64 }

let log_id t = t.id
let size t = Merkle.size t.tree

let append t o =
  match Hashtbl.find_opt t.last_by_uri o.ob_uri with
  | Some last when observation_equal last o -> `Unchanged
  | _ ->
    let i = Merkle.add t.tree (encode_observation o) in
    Hashtbl.replace t.obs i o;
    Hashtbl.replace t.last_by_uri o.ob_uri o;
    if not (Hashtbl.mem t.by_key (o.ob_uri, o.ob_serial)) then
      Hashtbl.replace t.by_key (o.ob_uri, o.ob_serial) i;
    `Appended i

let observation t i =
  match Hashtbl.find_opt t.obs i with
  | Some o -> o
  | None -> invalid_arg "Log.observation: index out of range"

let observations t = List.init (size t) (observation t)

let since t from = List.init (max 0 (size t - from)) (fun k -> (from + k, observation t (from + k)))

let find t ~uri ~serial =
  Option.map (fun i -> (i, observation t i)) (Hashtbl.find_opt t.by_key (uri, serial))

let latest_for t ~uri = Hashtbl.find_opt t.last_by_uri uri

type head = {
  h_log_id : string;
  h_size : int;
  h_root : string;
  h_at : int;
}

let head t ~at = { h_log_id = t.id; h_size = size t; h_root = Merkle.root t.tree; h_at = at }

let encode_head h =
  let b = Buffer.create 64 in
  Buffer.add_string b "rpki-sth-v1\n";
  encode_field b h.h_log_id;
  encode_field b (string_of_int h.h_size);
  encode_field b h.h_root;
  encode_field b (string_of_int h.h_at);
  Buffer.contents b

let decode_head s =
  match decode_fields ~magic:"rpki-sth-v1\n" ~count:4 s with
  | Some [ h_log_id; size; h_root; at ] -> (
    match (int_of_string_opt size, int_of_string_opt at) with
    | Some h_size, Some h_at -> canonical encode_head s { h_log_id; h_size; h_root; h_at }
    | _ -> None)
  | _ -> None

let head_to_string h =
  Printf.sprintf "%s[%d]=%s @t%d" h.h_log_id h.h_size (short h.h_root) h.h_at

type signed_head = {
  sh_head : head;
  sh_sig : string;
}

let sign_head ~key h = { sh_head = h; sh_sig = Rsa.sign ~key (encode_head h) }
let verify_head ~key sh = Rsa.verify ~key ~signature:sh.sh_sig (encode_head sh.sh_head)

let inclusion_proof t ~index ~size = Merkle.inclusion_proof t.tree ~index ~size

let verify_observation_inclusion ?verdicts o ~index ~head proof =
  let leaf = encode_observation o and size = head.h_size and root = head.h_root in
  match verdicts with
  | None -> Merkle.verify_inclusion ~leaf ~index ~size ~root proof
  | Some v -> Merkle.Verdicts.verify_inclusion v ~leaf ~index ~size ~root proof

let consistency_proof t ~old_size ~size = Merkle.consistency_proof t.tree ~old_size ~size

let verify_head_consistency ?verdicts ~old_head ~new_head proof =
  let old_size = old_head.h_size and old_root = old_head.h_root in
  let size = new_head.h_size and root = new_head.h_root in
  String.equal old_head.h_log_id new_head.h_log_id
  && old_size <= size
  &&
  match verdicts with
  | None -> Merkle.verify_consistency ~old_size ~old_root ~size ~root proof
  | Some v -> Merkle.Verdicts.verify_consistency v ~old_size ~old_root ~size ~root proof
