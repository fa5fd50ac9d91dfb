(* RPKI-to-Router protocol PDUs (RFC 6810), byte-exact.

   The last leg of Figure 1's dependency chain: the relying party's cache
   speaks this protocol to routers, pushing validated ROA payloads.  All
   integers are big-endian; the common 8-byte header is
   version / pdu type / session-or-zero / total length. *)

type flags = Announce | Withdraw

type t =
  | Serial_notify of { session_id : int; serial : int }
  | Serial_query of { session_id : int; serial : int }
  | Reset_query
  | Cache_response of { session_id : int }
  | Ipv4_prefix of {
      flags : flags;
      prefix : Rpki_ip.V4.Prefix.t;
      max_len : int;
      asn : int;
    }
  | Ipv6_prefix of {
      flags : flags;
      prefix6 : Rpki_ip.V6.Prefix.t;
      max_len : int;
      asn : int;
    }
  | End_of_data of { session_id : int; serial : int }
  | Cache_reset
  | Error_report of { error_code : int; message : string }

let protocol_version = 0

(* RFC 6810 error codes *)
let err_corrupt_data = 0
let err_no_data_available = 2
let err_invalid_request = 3

exception Parse_error of string

(* A value that does not fit its field is refused, never truncated: an AS
   number of 2^32 + 17054 must not reach a router as AS17054. *)
let put buf ~bytes v =
  if v < 0 || v lsr (8 * bytes) <> 0 then
    invalid_arg (Printf.sprintf "Pdu.encode: %d does not fit %d bits" v (8 * bytes));
  for i = bytes - 1 downto 0 do
    Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let put_u8 buf v = put buf ~bytes:1 v
let put_u16 buf v = put buf ~bytes:2 v
let put_u32 buf v = put buf ~bytes:4 v

(* What [decode_at] refuses in a prefix PDU, refused before encoding. *)
let check_lengths ~width plen max_len =
  if plen > width || max_len > width || max_len < plen then
    invalid_arg
      (Printf.sprintf "Pdu.encode: prefix length %d, max length %d in a %d-bit family" plen
         max_len width)

let header buf ~pdu_type ~session ~length =
  put_u8 buf protocol_version;
  put_u8 buf pdu_type;
  put_u16 buf session;
  put_u32 buf length

let encode (t : t) =
  let buf = Buffer.create 32 in
  (match t with
  | Serial_notify { session_id; serial } ->
    header buf ~pdu_type:0 ~session:session_id ~length:12;
    put_u32 buf serial
  | Serial_query { session_id; serial } ->
    header buf ~pdu_type:1 ~session:session_id ~length:12;
    put_u32 buf serial
  | Reset_query -> header buf ~pdu_type:2 ~session:0 ~length:8
  | Cache_response { session_id } -> header buf ~pdu_type:3 ~session:session_id ~length:8
  | Ipv4_prefix { flags; prefix; max_len; asn } ->
    check_lengths ~width:32 (Rpki_ip.V4.Prefix.len prefix) max_len;
    header buf ~pdu_type:4 ~session:0 ~length:20;
    put_u8 buf (match flags with Announce -> 1 | Withdraw -> 0);
    put_u8 buf (Rpki_ip.V4.Prefix.len prefix);
    put_u8 buf max_len;
    put_u8 buf 0;
    put_u32 buf (Rpki_ip.V4.Prefix.addr prefix);
    put_u32 buf asn
  | Ipv6_prefix { flags; prefix6; max_len; asn } ->
    check_lengths ~width:128 (Rpki_ip.V6.Prefix.len prefix6) max_len;
    header buf ~pdu_type:6 ~session:0 ~length:32;
    put_u8 buf (match flags with Announce -> 1 | Withdraw -> 0);
    put_u8 buf (Rpki_ip.V6.Prefix.len prefix6);
    put_u8 buf max_len;
    put_u8 buf 0;
    let h, l = Rpki_ip.V6.Prefix.addr prefix6 in
    put_u32 buf (Int64.to_int (Int64.shift_right_logical h 32));
    put_u32 buf (Int64.to_int (Int64.logand h 0xFFFFFFFFL));
    put_u32 buf (Int64.to_int (Int64.shift_right_logical l 32));
    put_u32 buf (Int64.to_int (Int64.logand l 0xFFFFFFFFL));
    put_u32 buf asn
  | End_of_data { session_id; serial } ->
    header buf ~pdu_type:7 ~session:session_id ~length:12;
    put_u32 buf serial
  | Cache_reset -> header buf ~pdu_type:8 ~session:0 ~length:8
  | Error_report { error_code; message } ->
    (* encapsulated-PDU length 0; message text follows *)
    header buf ~pdu_type:10 ~session:error_code ~length:(8 + 4 + 4 + String.length message);
    put_u32 buf 0;
    put_u32 buf (String.length message);
    Buffer.add_string buf message);
  Buffer.contents buf

let get_u8 s off = Char.code s.[off]
let get_u16 s off = (get_u8 s off lsl 8) lor get_u8 s (off + 1)
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

(* Every type but Error Report has exactly one length (RFC 6810 section 5);
   checking it first is what keeps the fixed-offset reads inside the PDU. *)
let expect_length name want length =
  if length <> want then raise (Parse_error (Printf.sprintf "bad %s PDU length" name))

(* Decode one PDU from [s] starting at [off]; returns (pdu, bytes consumed). *)
let decode_at s off =
  if String.length s - off < 8 then raise (Parse_error "truncated header");
  let version = get_u8 s off in
  if version <> protocol_version then
    raise (Parse_error (Printf.sprintf "unsupported version %d" version));
  let pdu_type = get_u8 s (off + 1) in
  let session = get_u16 s (off + 2) in
  let length = get_u32 s (off + 4) in
  if length < 8 || String.length s - off < length then raise (Parse_error "truncated PDU");
  let pdu =
    match pdu_type with
    | 0 ->
      expect_length "Serial Notify" 12 length;
      Serial_notify { session_id = session; serial = get_u32 s (off + 8) }
    | 1 ->
      expect_length "Serial Query" 12 length;
      Serial_query { session_id = session; serial = get_u32 s (off + 8) }
    | 2 ->
      expect_length "Reset Query" 8 length;
      Reset_query
    | 3 ->
      expect_length "Cache Response" 8 length;
      Cache_response { session_id = session }
    | 4 ->
      expect_length "IPv4 prefix" 20 length;
      let flags = if get_u8 s (off + 8) land 1 = 1 then Announce else Withdraw in
      let plen = get_u8 s (off + 9) in
      let max_len = get_u8 s (off + 10) in
      let addr = get_u32 s (off + 12) in
      if plen > 32 || max_len > 32 || max_len < plen then
        raise (Parse_error "bad IPv4 prefix lengths");
      Ipv4_prefix { flags; prefix = Rpki_ip.V4.Prefix.make addr plen; max_len;
                    asn = get_u32 s (off + 16) }
    | 6 ->
      expect_length "IPv6 prefix" 32 length;
      let flags = if get_u8 s (off + 8) land 1 = 1 then Announce else Withdraw in
      let plen = get_u8 s (off + 9) in
      let max_len = get_u8 s (off + 10) in
      if plen > 128 || max_len > 128 || max_len < plen then
        raise (Parse_error "bad IPv6 prefix lengths");
      let w i = Int64.of_int (get_u32 s (off + 12 + (4 * i))) in
      let h = Int64.logor (Int64.shift_left (w 0) 32) (w 1) in
      let l = Int64.logor (Int64.shift_left (w 2) 32) (w 3) in
      Ipv6_prefix { flags; prefix6 = Rpki_ip.V6.Prefix.make (h, l) plen; max_len;
                    asn = get_u32 s (off + 28) }
    | 7 ->
      expect_length "End of Data" 12 length;
      End_of_data { session_id = session; serial = get_u32 s (off + 8) }
    | 8 ->
      expect_length "Cache Reset" 8 length;
      Cache_reset
    | 10 ->
      (* RFC 6810 section 5.10: the encapsulated PDU and then the text,
         each behind its 32-bit length, filling the PDU exactly *)
      let bad () = raise (Parse_error "bad Error Report PDU length") in
      if length < 16 then bad ();
      let pdu_len = get_u32 s (off + 8) in
      if 16 + pdu_len > length then bad ();
      let text_len = get_u32 s (off + 12 + pdu_len) in
      if 16 + pdu_len + text_len <> length then bad ();
      Error_report
        { error_code = session; message = String.sub s (off + 16 + pdu_len) text_len }
    | n -> raise (Parse_error (Printf.sprintf "unsupported PDU type %d" n))
  in
  (pdu, length)

let decode s =
  let p, n = decode_at s 0 in
  if n <> String.length s then raise (Parse_error "trailing bytes");
  p

(* Decode a stream of concatenated PDUs. *)
let decode_all s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else begin
      let p, n = decode_at s off in
      go (off + n) (p :: acc)
    end
  in
  go 0 []

let of_vrp ?(flags = Announce) (v : Rpki_core.Vrp.t) =
  Ipv4_prefix { flags; prefix = v.Rpki_core.Vrp.prefix; max_len = v.Rpki_core.Vrp.max_len;
                asn = v.Rpki_core.Vrp.asn }

let to_string = function
  | Serial_notify { session_id; serial } -> Printf.sprintf "SerialNotify(%d,%d)" session_id serial
  | Serial_query { session_id; serial } -> Printf.sprintf "SerialQuery(%d,%d)" session_id serial
  | Reset_query -> "ResetQuery"
  | Cache_response { session_id } -> Printf.sprintf "CacheResponse(%d)" session_id
  | Ipv4_prefix { flags; prefix; max_len; asn } ->
    Printf.sprintf "IPv4Prefix(%s,%s-%d,AS%d)"
      (match flags with Announce -> "+" | Withdraw -> "-")
      (Rpki_ip.V4.Prefix.to_string prefix) max_len asn
  | Ipv6_prefix { flags; prefix6; max_len; asn } ->
    Printf.sprintf "IPv6Prefix(%s,%s-%d,AS%d)"
      (match flags with Announce -> "+" | Withdraw -> "-")
      (Rpki_ip.V6.Prefix.to_string prefix6) max_len asn
  | End_of_data { session_id; serial } -> Printf.sprintf "EndOfData(%d,%d)" session_id serial
  | Cache_reset -> "CacheReset"
  | Error_report { error_code; message } -> Printf.sprintf "ErrorReport(%d,%S)" error_code message
