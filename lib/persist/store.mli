(** Generation-numbered snapshot store with atomic write-then-rename: a
    checkpointed base snapshot plus an append-only chain of sealed segments.

    A store owns a base snapshot file, zero or more segment files (one per
    {!append}, named by generation) and a generation marker written after
    every data rename.  A crash between the two renames is detectable: the
    marker runs ahead of the chain and {!load_chain} reports [Stale] instead
    of silently serving an older generation.

    {!save} writes a full base (retiring any segments) — the O(history)
    path.  {!append} seals a new segment holding only the records handed to
    it — the O(delta) path a long-running relying party saves through; it
    never writes a base itself.  The store treats records as opaque: what
    a segment holds (for a relying party, the fresh observations, a
    checkpoint, and a VRP diff when the set changed) and how a chain folds
    are the caller's to decide.
    {!compact} folds base + segments back into one base snapshot; it stages,
    verifies, swaps and only then deletes, so any one-shot {!Disk} fault
    fired mid-compaction leaves the store exactly as it was. *)

type t

val create : Disk.t -> name:string -> t

val same : t -> t -> bool
(** Whether two handles name one store: the same disk and the same name. *)

type sealed = {
  generation : int;  (** the generation written (marker + 1) *)
  intact : bool;
      (** the sealed file reads back byte-identical to the bytes written:
          [false] after a torn, partially flushed or bit-flipped write, or a
          dropped data rename.  A chain that ends in a file that is not
          intact does not restore, so nothing should be appended to it. *)
}

val save : t -> now:int -> Codec.record list -> sealed
(** Write a full base snapshot and retire any sealed segments. *)

val append : t -> now:int -> Codec.record list -> sealed
(** Seal a new segment holding exactly [records].  Raises
    [Invalid_argument] when no base snapshot exists ({!snapshot_bytes} is
    0): the caller must {!save} a base first, since [records] are a delta
    that could not be restored on their own. *)

type load_error =
  | No_snapshot
  | Corrupt of string
  | Stale of { snap_generation : int; marker : int }

val load_error_to_string : load_error -> string

val load : t -> (Codec.snapshot, load_error) result
(** The base snapshot alone (validated against the chain's marker).  Most
    callers want {!load_chain}. *)

val load_chain : t -> (Codec.snapshot list, load_error) result
(** The whole chain, base snapshot first, then each sealed segment in
    generation order.  Every generation between the base's and the marker's
    must be present and decode cleanly, or the chain is refused ([Stale]
    for a missing segment — the dropped-rename crash window — [Corrupt]
    for a damaged one). *)

val compact :
  t -> now:int -> fold:(Codec.snapshot list -> Codec.record list) ->
  (int, string) result
(** Fold base + segments into one base snapshot.  [fold] receives the
    chain, base first, and returns the folded record list.
    [fold] runs before anything is written, so a [fold] that raises leaves
    the store untouched.
    The folded base keeps the chain's newest generation (the marker does
    not move).  Crash-safe against the one-shot {!Disk} faults: the folded
    container is staged and read back before the swap, and the swap is
    re-read before the segments are deleted — on any detected fault the
    result is [Error] and the store is untouched (still segmented, still
    loadable).  [Ok generation] with no segments sealed is a no-op. *)

val generation : t -> int
(** The marker's generation; 0 if never saved. *)

val segment_count : t -> int
(** Sealed segments beyond the base in the currently loadable chain; 0 when
    the chain is unreadable. *)

val snapshot_bytes : t -> int
(** Size of the base snapshot file; 0 if none. *)

val chain_bytes : t -> int
(** Total on-disk bytes of base + segments (what restore must read). *)

val wipe : t -> unit
(** Delete base, segments, marker and temporaries (simulates losing the
    disk). *)
