(** Probabilistic primality testing and prime generation for RSA keygen.

    A search draws odd numbers of the wanted width until one survives a
    small-prime sieve and Miller–Rabin round 1: a {e candidate}.  Right
    after round 1's base it draws the bases of rounds 2–40 from the same
    stream, which is where a test running all 40 rounds at once draws them
    for a number that proves prime.  The candidate's {e proof} runs those
    rounds later, and {!pair} runs it only on a pair its caller keeps.

    - Every prime returned here passed all 40 rounds, with bases drawn from
      the caller's stream in that order.
    - A candidate of a discarded pair passed round 1 only; it is never
      returned.
    - The primes, and the stream position after them, equal those of the
      search that runs all 40 rounds on every number passing round 1,
      except after a composite that passes round 1 and fails a later
      round: that search stops drawing at the witness, this one has drawn
      all 39 later bases. *)

val passes : Nat.t -> bases:Nat.t list -> bool
(** [passes n ~bases]: no base in [bases] witnesses that [n] is composite,
    one Miller–Rabin round per base, in order, stopping at the first
    witness.  The rounds every test here runs.  [n] is odd and at least 5;
    each base is in [\[2, n-1\]]. *)

val is_probably_prime : Rpki_util.Rng.t -> Nat.t -> bool
(** The sieve, then Miller–Rabin with 40 random bases (error below
    2{^-80}).  Deterministic for values below 4. *)

val generate : Rpki_util.Rng.t -> bits:int -> Nat.t
(** A random probable prime with exactly [bits] bits: the first candidate
    whose proof passes.  Raises [Invalid_argument] below 4 bits. *)

val pair :
  Rpki_util.Rng.t -> bits:int * int -> keep:(Nat.t -> Nat.t -> 'a option) -> 'a
(** [pair rng ~bits:(bp, bq) ~keep] draws a candidate [p] of [bp] bits,
    then a candidate [q] of [bq] bits, and asks [keep p q].  When [keep]
    answers [Some x] and the proofs of [p], then [q], pass, the result is
    [x].  Otherwise it drops the pair and draws the next.  [keep] must not
    draw from [rng], and must not let [p] or [q] escape other than through
    [x].  Raises [Invalid_argument] below 4 bits. *)
