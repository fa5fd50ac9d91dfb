(** The transparency log: an append-only, Merkle-tree-backed history of
    publication-point states.

    The paper's Section 7 countermeasure is making authority misbehavior
    {e detectable}: a misbehaving authority should be unable to show one
    RPKI view to its victim and another to the rest of the world without
    leaving cryptographic evidence.  Each relying-party vantage keeps one
    of these logs; every sync appends a content-addressed {!observation}
    per fetched publication point (point URI, manifest number, manifest
    hash, VRP-set hash, listing fingerprint).  The log commits to its whole
    history through a {!head} (root hash + size), which the vantage signs
    ({!signed_head}) and gossips to its peers.

    Two honest vantages watching the same honest authority record the same
    observation for a given (point, manifest number); a split-view
    ("mirror world") authority necessarily creates two observations with
    the same key but different hashes — and each side's inclusion proof
    under its signed head turns that divergence into portable, verifiable
    fork evidence.  A vantage that rewrites its own history is caught by a
    consistency-proof failure between its successive heads.

    Appends are deduplicated per point: re-observing an unchanged state
    (e.g. a stale-cache fallback under a stalled transport) appends
    nothing, so faulty-but-consistent transports never fork the log. *)

open Rpki_crypto

type observation = {
  ob_uri : string;            (** the publication point *)
  ob_serial : int;            (** manifest number as served; 0 if no manifest *)
  ob_manifest_hash : string;  (** SHA-256 of the manifest bytes; [""] if absent *)
  ob_vrp_hash : string;       (** SHA-256 over the point's sorted VRP strings *)
  ob_snapshot_fp : string;    (** the served listing's fingerprint *)
  ob_at : int;                (** tick the state was first observed *)
}

val encode_observation : observation -> string
(** Canonical length-prefixed leaf encoding; what the Merkle tree hashes. *)

val decode_observation : string -> observation option
(** Inverse of {!encode_observation}: [Some o] exactly when the input is
    [encode_observation o], [None] on anything else.  Never raises. *)

val observation_equal : observation -> observation -> bool
(** Equality of the observed {e state} — everything but [ob_at]. *)

val observation_to_string : observation -> string

type t
(** One vantage's append-only log. *)

val create : log_id:string -> t
(** [log_id] names the vantage; it is bound into every head. *)

val log_id : t -> string
val size : t -> int

val append : t -> observation -> [ `Appended of int | `Unchanged ]
(** Record an observation.  [`Unchanged] when the point's last recorded
    state is identical (modulo [ob_at]) — the dedup that keeps delayed
    re-observations from growing or forking the log. *)

val observations : t -> observation list
(** Oldest first. *)

val since : t -> int -> (int * observation) list
(** Entries with index >= the given size (a gossip delta), oldest first. *)

val find : t -> uri:string -> serial:int -> (int * observation) option
(** The first observation recorded for (point, manifest number) — the
    cross-vantage conflict-detection key. *)

val latest_for : t -> uri:string -> observation option

type head = {
  h_log_id : string;
  h_size : int;
  h_root : string;   (** Merkle root over the first [h_size] leaves *)
  h_at : int;        (** tick the head was cut *)
}

val head : t -> at:int -> head
val encode_head : head -> string

val decode_head : string -> head option
(** Inverse of {!encode_head}: [Some h] exactly when the input is
    [encode_head h], [None] on anything else.  Never raises.  What the
    persistence layer stores and rehydrates. *)

val head_to_string : head -> string

type signed_head = {
  sh_head : head;
  sh_sig : string;   (** RSA signature over {!encode_head} *)
}

val sign_head : key:Rsa.private_ -> head -> signed_head
val verify_head : key:Rsa.public -> signed_head -> bool

val inclusion_proof : t -> index:int -> size:int -> Merkle.proof
(** Proof that leaf [index] is in this log's tree of [size] leaves. *)

val verify_observation_inclusion :
  ?verdicts:Merkle.Verdicts.t -> observation -> index:int -> head:head -> Merkle.proof -> bool
(** Verify an observation against a (peer's) head — no log needed.  With
    [verdicts], the Merkle check is answered from that table when it was
    made before (same leaf, index, size, root and proof). *)

val consistency_proof : t -> old_size:int -> size:int -> Merkle.proof

val verify_head_consistency :
  ?verdicts:Merkle.Verdicts.t -> old_head:head -> new_head:head -> Merkle.proof -> bool
(** Do two heads of the same log describe one append-only history?
    Checks log-id equality and size order, then the Merkle consistency
    proof — answered from [verdicts] when that exact check was made
    before. *)
