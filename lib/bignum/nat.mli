(** Arbitrary-precision natural numbers.

    Little-endian base-2{^30} limbs in a native int array; the substrate for
    the RSA implementation. Division is Knuth's Algorithm D; multiplication
    switches to Karatsuba above a fixed limb threshold. *)

type t
(** An immutable natural number. *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool

val of_int : int -> t
(** Raises [Invalid_argument] on negatives. *)

val to_int_opt : t -> int option
(** [Some i] when the value fits in a native int. *)

val to_int_exn : t -> int
(** Like {!to_int_opt} but raises [Failure] when it does not fit. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool

val num_bits : t -> int
(** Bit width; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit a i] is bit [i], least-significant first. *)

val add : t -> t -> t

val sub : t -> t -> t
(** Raises [Invalid_argument] when the result would be negative. *)

val mul : t -> t -> t
(** Schoolbook multiplication, O(n·m) limb products. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)

val rem : t -> t -> t

val gcd : t -> t -> t

val pow_mod : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation.  Odd moduli with exponents of 8 bits or more
    use a 4-bit sliding window over product-scanning Montgomery
    multiplication, on limbs of the widest width up to 29 bits whose column
    sums fit a native int for the modulus at hand (29 bits up to 464-bit
    moduli, 28 up to 1792, 27 up to 6912, ...); even moduli and tiny
    exponents fall back to {!pow_mod_simple}.  The two always agree.
    Raises [Division_by_zero] on a zero modulus. *)

val pow_mod_simple : base:t -> exp:t -> modulus:t -> t
(** Left-to-right square-and-multiply modular exponentiation — the
    reference implementation, exposed for cross-checking {!pow_mod}.
    Raises [Division_by_zero] on a zero modulus. *)

val succ : t -> t
val pred : t -> t

val of_bytes_be : string -> t
(** Big-endian bytes to natural, in time linear in the length. *)

val to_bytes_be : t -> string
(** Minimal big-endian encoding; [to_bytes_be zero = "\x00"]. *)

val to_bytes_be_padded : t -> int -> string
(** Fixed-width big-endian, left-padded with zeros.
    Raises [Invalid_argument] when the value is too wide. *)

val of_hex : string -> t
val to_hex : t -> string

val of_decimal : string -> t
(** Raises [Invalid_argument] on non-digit characters or the empty string. *)

val to_decimal : t -> string

val pp : Format.formatter -> t -> unit

val random : Rpki_util.Rng.t -> bound:t -> t
(** Uniform in [\[0, bound)] by rejection sampling. *)

val random_bits : Rpki_util.Rng.t -> bits:int -> t
(** A random natural with exactly [bits] bits (top bit forced on). *)
