(** The resource bundle carried by a certificate: IPv4 + IPv6 address space
    and AS numbers, per RFC 3779.

    The containment partial order on these bundles is what the RPKI's
    "principle of least privilege" enforces — and what the whacking attacks
    manipulate. *)

open Rpki_ip

type t = {
  v4 : V4.Set.t;
  v6 : V6.Set.t;
  asns : As_res.Set.t;
}

val empty : t
val make : ?v4:V4.Set.t -> ?v6:V6.Set.t -> unit -> t
(** A bundle without AS numbers. *)

val of_v4_strings : string list -> t
(** Build an IPv4-only bundle from strings like ["63.160.0.0/12"] or
    ["63.174.16.0-63.174.23.255"]. *)

val is_empty : t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val union : t -> t -> t
val diff : t -> t -> t
val overlaps : t -> t -> bool

val overclaim : claimed:t -> allowed:t -> t
(** The part of [claimed] exceeding [allowed]; empty iff contained. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {2 DER encoding} *)

val to_der : t -> Rpki_asn.Der.t
val of_der : Rpki_asn.Der.t -> t

val nat_of_v6 : Addr.V6.t -> Rpki_bignum.Nat.t
(** 128-bit address as a natural, for INTEGER encoding. *)

val v6_of_nat : Rpki_bignum.Nat.t -> Addr.V6.t
(** The inverse of {!nat_of_v6}.  Raises [Rpki_asn.Der.Decode_error] on a
    value wider than 128 bits. *)

val uint32_of_der : Rpki_asn.Der.t -> int
(** An INTEGER of at most 32 bits (an IPv4 address or an AS number).
    Raises [Rpki_asn.Der.Decode_error] otherwise. *)
