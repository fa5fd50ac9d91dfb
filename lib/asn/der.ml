(* A DER subset: the TLV universe needed to give RPKI objects a canonical
   byte encoding (signatures must be over real bytes, and the repository
   layer stores and hashes those bytes).

   Supported universal types: BOOLEAN, INTEGER (non-negative), BIT STRING
   (whole bytes), OCTET STRING, NULL, OBJECT IDENTIFIER, UTF8String,
   SEQUENCE, SET, plus context-specific constructed tags.  Definite lengths
   only, minimal-length encodings only — i.e. actual DER, not BER. *)

open Rpki_bignum

type t =
  | Boolean of bool
  | Integer of Nat.t
  | Bit_string of string
  | Octet_string of string
  | Null
  | Oid of int list
  | Utf8 of string
  | Sequence of t list
  | Set of t list
  | Context of int * t list (* context-specific, constructed *)

exception Decode_error of string

let decode_error fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* --- encoding --- *)

let encode_length buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    let rec bytes_of n acc = if n = 0 then acc else bytes_of (n lsr 8) (Char.chr (n land 0xff) :: acc) in
    let bs = bytes_of n [] in
    Buffer.add_char buf (Char.chr (0x80 lor List.length bs));
    List.iter (Buffer.add_char buf) bs
  end

let encode_oid_arcs arcs =
  match arcs with
  | a :: b :: rest when a >= 0 && a <= 2 && b >= 0 && (a = 2 || b < 40) ->
    let buf = Buffer.create 8 in
    let add_base128 v =
      let rec digits v acc = if v = 0 && acc <> [] then acc else digits (v lsr 7) ((v land 0x7f) :: acc) in
      let ds = digits v [] in
      let n = List.length ds in
      List.iteri
        (fun i d -> Buffer.add_char buf (Char.chr (if i = n - 1 then d else d lor 0x80)))
        ds
    in
    add_base128 ((40 * a) + b);
    List.iter add_base128 rest;
    Buffer.contents buf
  | _ -> invalid_arg "Der.encode: malformed OID"

(* Minimal big-endian encoding of a non-negative integer, with a leading
   0x00 when the top bit is set (DER two's complement rule). *)
let encode_integer_body n =
  if Nat.is_zero n then "\x00"
  else begin
    let b = Nat.to_bytes_be n in
    if Char.code b.[0] >= 0x80 then "\x00" ^ b else b
  end

let rec encode_to buf t =
  let tlv tag body =
    Buffer.add_char buf (Char.chr tag);
    encode_length buf (String.length body);
    Buffer.add_string buf body
  in
  match t with
  | Boolean b -> tlv 0x01 (if b then "\xff" else "\x00")
  | Integer n -> tlv 0x02 (encode_integer_body n)
  | Bit_string s -> tlv 0x03 ("\x00" ^ s) (* zero unused bits *)
  | Octet_string s -> tlv 0x04 s
  | Null -> tlv 0x05 ""
  | Oid arcs -> tlv 0x06 (encode_oid_arcs arcs)
  | Utf8 s -> tlv 0x0c s
  | Sequence items -> tlv 0x30 (encode_items items)
  | Set items -> tlv 0x31 (encode_items items)
  | Context (n, items) ->
    if n < 0 || n > 30 then invalid_arg "Der.encode: context tag out of range";
    tlv (0xa0 lor n) (encode_items items)

and encode_items items =
  let buf = Buffer.create 64 in
  List.iter (encode_to buf) items;
  Buffer.contents buf

let encode t =
  let buf = Buffer.create 64 in
  encode_to buf t;
  Buffer.contents buf

(* --- decoding --- *)

type cursor = { data : string; mutable pos : int; limit : int }

let byte cur =
  if cur.pos >= cur.limit then decode_error "unexpected end of input at %d" cur.pos;
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let take cur n =
  if cur.pos + n > cur.limit then decode_error "truncated value at %d (want %d bytes)" cur.pos n;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let decode_length cur =
  let first = byte cur in
  if first < 0x80 then first
  else begin
    let n = first land 0x7f in
    if n = 0 then decode_error "indefinite length is not DER";
    if n > 4 then decode_error "length of length %d too large" n;
    let rec go i acc =
      if i = 0 then acc
      else begin
        let b = byte cur in
        (* a leading zero byte means fewer length bytes would have done *)
        if i = n && b = 0 then decode_error "non-minimal length encoding";
        go (i - 1) ((acc lsl 8) lor b)
      end
    in
    let len = go n 0 in
    if len < 0x80 && n = 1 then decode_error "non-minimal length encoding";
    len
  end

let decode_oid_arcs body =
  if body = "" then decode_error "empty OID";
  let cur = { data = body; pos = 0; limit = String.length body } in
  let read_arc () =
    let rec go acc =
      let b = byte cur in
      let acc = (acc lsl 7) lor (b land 0x7f) in
      if b land 0x80 = 0 then acc else go acc
    in
    go 0
  in
  let first = read_arc () in
  let a = min (first / 40) 2 in
  let b = first - (40 * a) in
  let rest = ref [] in
  while cur.pos < cur.limit do
    rest := read_arc () :: !rest
  done;
  a :: b :: List.rev !rest

let primitive tag body =
  let len = String.length body in
  match tag with
  | 0x01 ->
    if len <> 1 then decode_error "BOOLEAN must be one byte";
    (match body.[0] with
    | '\x00' -> Boolean false
    | '\xff' -> Boolean true
    | _ -> decode_error "BOOLEAN must be 00 or FF in DER")
  | 0x02 ->
    if len = 0 then decode_error "empty INTEGER";
    if Char.code body.[0] >= 0x80 then decode_error "negative INTEGER unsupported";
    if len > 1 && body.[0] = '\x00' && Char.code body.[1] < 0x80 then
      decode_error "non-minimal INTEGER";
    Integer (Nat.of_bytes_be body)
  | 0x03 ->
    if len = 0 then decode_error "empty BIT STRING";
    if body.[0] <> '\x00' then decode_error "partial-byte BIT STRING unsupported";
    Bit_string (String.sub body 1 (len - 1))
  | 0x04 -> Octet_string body
  | 0x05 ->
    if len <> 0 then decode_error "NULL with content";
    Null
  | 0x06 -> Oid (decode_oid_arcs body)
  | 0x0c -> Utf8 body
  | t -> decode_error "unsupported tag 0x%02x" t

(* Constructed values nest at most this deep.  Their bodies are decoded in
   place (a cursor over the same bytes, not a copy), so work is linear in
   the input; the cap also bounds the recursion.  No RPKI object here nests
   deeper than 6. *)
let max_depth = 32

let rec decode_value ~depth cur =
  let tag = byte cur in
  let len = decode_length cur in
  if cur.pos + len > cur.limit then
    decode_error "truncated value at %d (want %d bytes)" cur.pos len;
  let items () =
    if depth >= max_depth then decode_error "nesting deeper than %d" max_depth;
    let inner = { cur with limit = cur.pos + len } in
    cur.pos <- cur.pos + len;
    decode_items ~depth:(depth + 1) inner
  in
  match tag with
  | 0x30 -> Sequence (items ())
  | 0x31 -> Set (items ())
  | t when t land 0xe0 = 0xa0 -> Context (t land 0x1f, items ())
  | t -> primitive t (take cur len)

and decode_items ~depth cur =
  let rec go acc =
    if cur.pos >= cur.limit then List.rev acc else go (decode_value ~depth cur :: acc)
  in
  go []

let decode_all data = decode_items ~depth:0 { data; pos = 0; limit = String.length data }

let decode s =
  match decode_all s with
  | [ v ] -> Ok v
  | [] -> Error "empty input"
  | _ -> Error "trailing data after value"
  | exception Decode_error msg -> Error msg

let decode_exn s =
  match decode s with Ok v -> v | Error msg -> raise (Decode_error msg)

(* --- helpers for building/destructuring RPKI structures --- *)

let int_ i = Integer (Nat.of_int i)

let to_int_exn = function
  | Integer n -> (
    match Nat.to_int_opt n with
    | Some i -> i
    | None -> decode_error "INTEGER of %d bits does not fit an int" (Nat.num_bits n))
  | _ -> decode_error "expected INTEGER"

let to_string_exn = function
  | Utf8 s | Octet_string s -> s
  | _ -> decode_error "expected string"

let to_list_exn = function
  | Sequence l | Set l | Context (_, l) -> l
  | _ -> decode_error "expected constructed value"

let rec pp fmt t =
  match t with
  | Boolean b -> Format.fprintf fmt "BOOLEAN %b" b
  | Integer n -> Format.fprintf fmt "INTEGER %a" Nat.pp n
  | Bit_string s -> Format.fprintf fmt "BIT STRING (%d bytes)" (String.length s)
  | Octet_string s -> Format.fprintf fmt "OCTET STRING %s" (Rpki_util.Hex.abbrev ~len:16 s)
  | Null -> Format.fprintf fmt "NULL"
  | Oid arcs -> Format.fprintf fmt "OID %s" (String.concat "." (List.map string_of_int arcs))
  | Utf8 s -> Format.fprintf fmt "UTF8 %S" s
  | Sequence l -> Format.fprintf fmt "SEQUENCE {@[<hov>%a@]}" pp_items l
  | Set l -> Format.fprintf fmt "SET {@[<hov>%a@]}" pp_items l
  | Context (n, l) -> Format.fprintf fmt "[%d] {@[<hov>%a@]}" n pp_items l

and pp_items fmt l =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp fmt l
