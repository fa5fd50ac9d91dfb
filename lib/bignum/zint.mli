(** Signed arbitrary-precision integers, a thin layer over {!Nat} providing
    just what the extended Euclidean algorithm needs. *)

type t
(** A signed integer. *)

val of_nat : Nat.t -> t
val of_int : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val erem : t -> Nat.t -> Nat.t
(** Euclidean remainder modulo a positive natural, always in [\[0, m)]. *)

val egcd : Nat.t -> Nat.t -> Nat.t * t * t
(** [egcd a b] is [(g, x, y)] with [a*x + b*y = g = gcd a b]. *)

val mod_inverse : Nat.t -> modulus:Nat.t -> Nat.t option
(** The inverse of [a] modulo [modulus], or [None] when not coprime. *)
