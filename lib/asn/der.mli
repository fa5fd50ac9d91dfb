(** A DER subset: the canonical TLV encoding RPKI objects are signed over.

    Definite, minimal-length encodings only — actual DER, not BER. The
    decoder rejects indefinite lengths, non-minimal lengths, non-minimal or
    negative INTEGERs, and malformed BOOLEANs.

    Decoding is bounded for hostile input: its work is linear in the input
    length (constructed bodies are decoded in place, INTEGERs converted in
    one pass), and constructed values nest at most 32 deep — deeper input
    is an error, not a deep recursion. *)

open Rpki_bignum

type t =
  | Boolean of bool
  | Integer of Nat.t           (** non-negative only *)
  | Bit_string of string       (** whole bytes; zero unused bits *)
  | Octet_string of string
  | Null
  | Oid of int list
  | Utf8 of string
  | Sequence of t list
  | Set of t list
  | Context of int * t list    (** context-specific, constructed, tag 0-30 *)

exception Decode_error of string

val decode_error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted message (used by the object
    parsers layered on top). *)

val encode : t -> string
(** The DER byte encoding. Raises [Invalid_argument] on malformed OIDs or
    out-of-range context tags. *)

val decode : string -> (t, string) result
(** Parse exactly one value; trailing bytes are an error. *)

val decode_exn : string -> t
(** Like {!decode} but raises {!Decode_error}. *)

val decode_all : string -> t list
(** Parse a concatenation of values. Raises {!Decode_error}. *)

val int_ : int -> t
(** [int_ i] is [Integer (Nat.of_int i)]. *)

val to_int_exn : t -> int
(** Project an INTEGER that fits a native int; raises {!Decode_error}
    otherwise (another type, or a value of 63 bits or more — RFC 5280
    serials may be 20 octets). *)

val to_string_exn : t -> string
(** Project a UTF8String or OCTET STRING. *)

val to_list_exn : t -> t list
(** Project any constructed value's children. *)

val pp : Format.formatter -> t -> unit
