(** RPKI-to-Router protocol PDUs (RFC 6810), byte-exact big-endian wire
    format. *)

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

(** RFC 6810 section 10 error codes. *)

val err_corrupt_data : int
val err_no_data_available : int
val err_invalid_request : int

exception Parse_error of string

val encode : t -> string
(** Raises [Invalid_argument] on a PDU {!decode} would refuse or that does
    not fit the wire: an AS number or serial outside [\[0, 2^32)], a
    session id or error code outside [\[0, 2^16)], or a prefix or max
    length beyond the address width, or a max length below the prefix
    length.  Nothing is ever truncated. *)

val decode : string -> t
(** Exactly one PDU; trailing bytes raise {!Parse_error}.  Every type but
    Error Report must carry exactly its RFC 6810 length, and an Error
    Report's encapsulated PDU and text must fill it exactly.  Any malformed
    input raises {!Parse_error} and nothing else. *)

val decode_all : string -> t list
(** A concatenated PDU stream. *)

val of_vrp : ?flags:flags -> Rpki_core.Vrp.t -> t
(** The IPv4 Prefix PDU carrying a VRP. *)

val to_string : t -> string
