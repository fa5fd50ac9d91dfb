(** Deterministic, checksummed snapshot codec over the strict DER encoder.

    A snapshot is a generation-numbered, timestamped container of typed
    records; every record carries a SHA-256 of its payload and the container
    carries a SHA-256 over generation, timestamp and body.  Any single-byte
    corruption is rejected at decode time — either as a DER error, a bad
    magic, or a checksum mismatch — never silently accepted. *)

type record = { r_kind : string; r_payload : string }

type snapshot = { s_generation : int; s_saved_at : int; s_records : record list }

type error =
  | Bad_magic of string
  | Checksum_mismatch of string  (** which checksum: ["snapshot"] or [record "kind"] *)
  | Malformed of string

val error_to_string : error -> string

val encode : snapshot -> string
val decode : string -> (snapshot, error) result
