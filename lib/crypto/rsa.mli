(** RSA signatures in the PKCS#1 v1.5 style, over {!Rpki_bignum}.

    Production RPKI mandates RSA-2048 with SHA-256 (RFC 7935); this
    implementation keeps the same signing pipeline (DigestInfo wrapping,
    type-01 padding, modular exponentiation) at a configurable modulus size,
    defaulting to 512 bits so that building large certificate hierarchies in
    tests stays cheap. *)

open Rpki_bignum

type public = private { n : Nat.t; e : Nat.t; id : string }
(** A public key.  [id] is {!key_id}, computed once by {!public}; the type
    is private so the two cannot disagree. *)

val public : n:Nat.t -> e:Nat.t -> public
(** The public key with modulus [n] and exponent [e], and its id. *)

type private_
(** A private key in CRT form: the primes [p] and [q] with
    [d mod (p-1)], [d mod (q-1)] and [q{^-1} mod p], derived once by
    {!generate}.  Abstract, so the CRT values cannot disagree with the
    primes. *)

type keypair = { public : public; private_ : private_ }

val default_bits : int
(** 512. *)

val modulus_bytes : public -> int
(** Signature width in bytes. *)

val generate : ?bits:int -> Rpki_util.Rng.t -> keypair
(** Deterministic keygen from the given RNG; [e = 65537].  Draws a prime
    pair of [bits / 2] and [bits - bits / 2] bits with {!Rpki_bignum.Prime.pair}
    and keeps the first whose primes differ, leave 65537 invertible mod
    (p-1)(q-1) and give a modulus exactly [bits] wide.  Both primes of the
    key passed all 40 Miller–Rabin rounds, with bases drawn from [rng]; the
    primes of a pair it throws away passed round 1 only.  The key, and
    where [rng] stands after it, are those of a search that ran all 40
    rounds on every prime it found, unless a composite passed round 1 on
    the way.  Raises [Invalid_argument] below 496 bits, the smallest
    modulus that can carry PKCS#1 v1.5 + SHA-256 DigestInfo. *)

val sign : key:private_ -> string -> string
(** Sign the SHA-256 digest of the message; the result is exactly
    [modulus_bytes] long.  Two half-width exponentiations (CRT); the
    signature is the unique one for the key and message, identical to
    [em{^d} mod n]. *)

val verify : key:public -> signature:string -> string -> bool
(** Verify a signature over a message.  Never raises.  A key outside the
    profile rejects every signature before any work: a modulus shorter
    than [min_bits / 8] bytes (it cannot hold the padded digest) or wider
    than 4096 bits (twice the 2048 that the RPKI algorithm profile,
    RFC 7935, mandates), or an exponent other than the profile's 65537. *)

val verification_count : unit -> int
(** Number of {!verify} calls executed since process start — a monotonic
    global counter, exact when several Domains verify at once.  Benchmarks
    diff it around a region to audit how much signature checking a
    configuration actually performed. *)

val key_id : public -> string
(** A stable 32-byte identifier for a public key (the profile's analogue of
    the Subject Key Identifier): SHA-256 of ["len:n:len:e"], with [n] and
    [e] as minimal big-endian bytes and each length in decimal.  Reads the
    field {!public} filled in; hashes nothing. *)

val equal_public : public -> public -> bool
