(** The data plane: longest-prefix-match forwarding over per-prefix RIBs.

    This is where subprefix hijacks bite ("when a router is offered BGP
    routes for a prefix and its subprefix, it always chooses the subprefix
    route") and where the paper's reachability questions are answered. *)

open Rpki_core
open Rpki_ip

type network
(** Per-prefix RIBs over one topology snapshot.  Immutable: a network built
    with [~prev] shares the RIBs it reused with [prev]. *)

val build :
  ?prev:network ->
  topo:Topology.t ->
  policy_of:(int -> Policy.t) ->
  validity_of:(Route.t -> Origin_validation.state) ->
  Propagation.announcement list ->
  network
(** Compute RIBs for every distinct announced prefix.  A prefix's RIB is a
    pure function of the topology (its identity and {!Topology.version}),
    the per-AS policy vector, and the prefix's announcements in list order
    each paired with its origin-validation state.  When [prev] was built
    over the same topology object at the same version with the same policy
    vector, every prefix whose announcements and validity states are
    unchanged reuses [prev]'s RIB; the result equals a build without
    [prev].  A prefix whose propagation is {!Propagation.Oscillating}
    gets no forwarding entry at any AS (see {!oscillating}). *)

val recomputed : network -> int
(** How many RIBs {!build} computed for this network rather than reused
    from [prev]: every prefix on a build without [prev], only the prefixes
    whose inputs changed on one with it.  Deterministic. *)

val oscillating : network -> V4.Prefix.t list
(** The announced prefixes, ascending, whose propagation did not settle.
    None is installed: traffic to them follows a covering prefix, if any,
    as it would once route-flap damping (RFC 2439) suppressed the flapping
    routes. *)

val forwarding_entry :
  network -> asn:int -> addr:Addr.V4.t -> (V4.Prefix.t * Propagation.entry) option
(** The LPM decision of [asn] for a destination address. *)

type delivery =
  | Delivered of { origin : int; hops : int list } (** reached this origin *)
  | No_route of int                                (** stuck at this AS *)
  | Loop of int list

val trace : network -> src:int -> addr:Addr.V4.t -> delivery
(** Hop-by-hop forwarding; each hop re-evaluates LPM with its own RIB, so a
    subprefix hijack diverts traffic even at ASes still holding the victim's
    covering route. *)

val reaches : network -> src:int -> addr:Addr.V4.t -> expected:int -> bool
(** Does traffic from [src] to [addr] reach the AS [expected]? *)

val reachability_fraction : network -> addr:Addr.V4.t -> expected:int -> float
(** Fraction of all ASes whose traffic to [addr] reaches [expected]. *)
