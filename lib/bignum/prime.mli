(** Probabilistic primality testing and prime generation for RSA keygen. *)

val is_probably_prime : Rpki_util.Rng.t -> Nat.t -> bool
(** Miller-Rabin with 40 random bases (error below 2{^-80}).
    Deterministic for values below 4. *)

val generate : Rpki_util.Rng.t -> bits:int -> Nat.t
(** A random probable prime with exactly [bits] bits.
    Raises [Invalid_argument] below 4 bits. *)
