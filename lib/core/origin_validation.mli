(** Route-origin validation (RFC 6811 / RFC 6483) — the semantics at the
    heart of the paper's Section 4.

    Given the relying party's validated ROA payloads, each route is:
    - [Valid] — some VRP matches (same origin, covering prefix, length
      within maxLength);
    - [Unknown] — no VRP even covers the prefix (the RFC's NotFound);
    - [Invalid] — some VRP covers the prefix but none matches.

    It is the [Invalid]-versus-[Unknown] distinction that creates Side
    Effects 5 and 6.

    The index is an opaque prefix trie and supports incremental
    maintenance: {!apply_diff} patches only the nodes a sync's VRP diff touches, so a steady-state
    relying-party tick never rebuilds the index from scratch.  The index
    has set semantics: adding a VRP already present, or removing one that
    is absent, is a no-op. *)

open Rpki_ip

type state = Valid | Invalid | Unknown

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit
val equal_state : state -> state -> bool

type index
(** A prefix-trie index over a VRP set. *)

val empty_index : index

val build : Vrp.t list -> index
(** Index a VRP set from scratch (duplicates are collapsed). *)

val apply_diff : index -> Vrp.diff -> index
(** Remove [d.removed], then add [d.added]; trie nodes left without any
    VRP are pruned.  If [idx] indexes [before], then [apply_diff idx
    (Vrp.diff_of ~before ~after)] indexes [after]. *)

val covered_strictly_below : index -> V4.Prefix.t -> bool
(** Does any indexed prefix sit strictly below (longer than) the given
    prefix?  Used by the validity-grid pruning walk. *)

val classify : index -> Route.t -> state
(** The RFC 6811 verdict.  A VRP matches a route with the same origin, a
    covering prefix and a length within its maxLength; AS0 VRPs never
    match (RFC 6483). *)

val explain : index -> Route.t -> state * Vrp.t list * Vrp.t list
(** [(state, matching, covering)] — evidence for the verdict. *)
