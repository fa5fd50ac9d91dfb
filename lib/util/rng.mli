(** Deterministic pseudo-random number generation (SplitMix64).

    Every source of randomness in the repository flows through a seeded [t],
    so experiments and tests are reproducible bit-for-bit. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed. *)

val of_int64 : int64 -> t
(** [of_int64 seed] makes a generator from a full 64-bit seed. *)

val copy : t -> t
(** [copy t] is an independent generator starting at [t]'s current state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val bool : t -> bool
(** A uniform boolean. *)

val float : t -> float
(** Uniform in [\[0, 1)], with 53 bits of precision. *)

val bits : t -> int -> int
(** [bits t n] is a non-negative int with exactly the low [n] bits random,
    for [1 <= n <= 62]. *)

val bytes : t -> int -> string
(** [bytes t n] is a string of [n] uniform bytes. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates shuffle of a fresh copy of the list. *)

val pick : t -> 'a list -> 'a
(** A uniform element. Raises [Invalid_argument] on the empty list. *)
