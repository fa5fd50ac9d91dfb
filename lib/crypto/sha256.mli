(** SHA-256 (FIPS 180-4), vector-tested against the NIST examples and,
    over random inputs, against an [Int32] reference implementation.
    Words are held in native ints, so it needs 63-bit ints (a 64-bit
    platform).

    Every context owns all of its scratch state, so digests may run on
    several Domains at once. *)

type ctx
(** Streaming hash state. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** Absorb bytes; may be called any number of times. *)

val finish : ctx -> string
(** Pad, finalize, and return the 32-byte digest. The context must not be
    reused afterwards. *)

val digest : string -> string
(** One-shot digest: 32 raw bytes. *)

val digest_list : string list -> string
(** [digest_list parts] is [digest (String.concat "" parts)], streamed —
    the natural shape for domain-separated hashing (tag, then payload). *)

val hexdigest : string -> string
(** One-shot digest in lowercase hex. *)
