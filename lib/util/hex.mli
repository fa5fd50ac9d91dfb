(** Hexadecimal encoding helpers. *)

val of_string : string -> string
(** [of_string s] is the lowercase hex rendering of the raw bytes [s]. *)

val to_string : string -> string
(** [to_string h] decodes lowercase or uppercase hex back to raw bytes.
    Raises [Invalid_argument] on odd length or bad digits. *)

val abbrev : ?len:int -> string -> string
(** [abbrev bytes] is a short hex fingerprint (default 8 hex chars) used when
    printing keys and hashes in tables. *)
