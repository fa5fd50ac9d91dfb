(** Validated ROA Payloads: the (prefix, maxLength, origin AS) triples that
    survive validation and drive route-origin validation (RFC 6811). *)

open Rpki_ip

type t = { prefix : V4.Prefix.t; max_len : int; asn : int }

val make : ?max_len:int -> V4.Prefix.t -> int -> t
(** [max_len] defaults to the prefix length. Raises [Invalid_argument] when
    [max_len] is outside [len..32] or [asn] outside [0..2^32-1] (RFC 6793;
    RTR carries an origin in 32 bits). *)

val compare : t -> t -> int
val equal : t -> t -> bool

val of_roa : Roa.t -> t list
(** One VRP per IPv4 entry of the ROA. *)

(** {2 Set operations}

    VRP sets are represented as sorted ({!compare}) duplicate-free lists;
    {!normalize} produces that form.  Diffs are the currency of the
    incremental pipeline: the relying party emits one per sync, the
    origin-validation index patches its trie with it, and the RTR cache
    serves it as a serial-numbered delta. *)

val normalize : t list -> t list
(** Sort and de-duplicate. *)

type diff = {
  added : t list;    (** present after, absent before *)
  removed : t list;  (** present before, absent after *)
}

val empty_diff : diff
val diff_is_empty : diff -> bool
val diff_size : diff -> int

val diff_of : before:t list -> after:t list -> diff
(** Set difference in both directions.  Both inputs must be normalized
    (sorted, duplicate-free); the result lists are normalized too.  Runs in
    linear time by sorted merge. *)

val apply_diff : t list -> diff -> t list
(** Patch a normalized set with a diff, returning a normalized set.
    [apply_diff before (diff_of ~before ~after) = after]. *)

val invert_diff : diff -> diff
(** Swap announce and withdraw: [apply_diff (apply_diff s d) (invert_diff d)]
    = [s].  Used to recover the base set a diff was computed against. *)

val fingerprint : t list -> int64
(** An order-independent-after-{!normalize} digest of a VRP set (FNV-1a over
    the sorted triples).  Cheap enough to compute per publish; used by the
    RTR plane to check that a diff is being applied to the set it was
    computed against (see {!Rpki_rtr.Session.publish_diff}).  Not
    cryptographic — a guard against plumbing bugs, not adversaries. *)

val to_string : t -> string
