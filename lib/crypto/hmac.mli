(** HMAC-SHA256 (RFC 2104 / FIPS 198-1), vector-tested against RFC 4231. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte MAC. Long keys are pre-hashed. *)

val hex : key:string -> string -> string
(** {!sha256} rendered in lowercase hex. *)

val equal_digest : string -> string -> bool
(** Constant-time comparison of equal-length digests. *)
