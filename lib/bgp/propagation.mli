(** BGP route propagation under Gao-Rexford export rules, with RPKI-aware
    route selection.

    Export rule: a route learned from a customer (or self-originated) is
    exported to everyone; a route learned from a peer or provider is
    exported only to customers.  Selection: (drop-invalid filters, then)
    validity > relationship preference > path length > lowest next hop. *)

open Rpki_core

type announcement = {
  prefix : Rpki_ip.V4.Prefix.t;
  origin : int; (** the AS in the origin position *)
}

type learned = From_customer | From_peer | From_provider | Self_originated

type entry = {
  ann : announcement;
  path : int list;   (** this AS first, origin last *)
  learned : learned;
  validity : Origin_validation.state;
}

val admissible : policy:Policy.t -> entry -> bool
(** Drop-invalid refuses invalid candidates outright. *)

val better : policy:Policy.t -> entry -> entry -> bool

val exports : entry -> to_:Topology.rel -> bool
(** Gao-Rexford export predicate; [to_] is the neighbour's relationship as
    seen by the route holder. *)

type rib
(** Best route per AS, for one prefix.  Immutable: successive data planes
    share the RIBs of prefixes whose inputs did not change. *)

type outcome =
  | Stable of rib
  | Oscillating
      (** the selections had not settled after 4n(n+2) worklist steps, n
          the number of ASes *)
(** What propagating one prefix comes to.  Gao and Rexford's conditions
    guarantee convergence on a valley-free topology when every AS ranks
    customer routes above peer and provider routes.  [Drop_invalid] and
    [Depref_invalid] rank validity ahead of the relationship, so when such
    ASes sit beside [Ignore_rpki] ASes and the announcements differ in
    validity, their preferences can form a dispute wheel: the selections
    may chase each other for ever, even where some other activation order
    would settle ([test_bgp] pins such an input).  When every AS ranks
    routes alike (all [Ignore_rpki], or none) the outcome is [Stable]. *)

val compute :
  topo:Topology.t ->
  policy_of:(int -> Policy.t) ->
  validity_of:(Route.t -> Origin_validation.state) ->
  announcement list ->
  outcome
(** Fixpoint propagation of one prefix's announcements through the
    topology. *)

val policy_vector : topo:Topology.t -> policy_of:(int -> Policy.t) -> Policy.t array
(** Every AS's policy, in ascending ASN order ({!Topology.asns}). *)

val classify :
  validity_of:(Route.t -> Origin_validation.state) ->
  announcement list ->
  (announcement * Origin_validation.state) list
(** Pair each announcement with its origin-validation state, in list order. *)

val compute_classified :
  topo:Topology.t ->
  policy:Policy.t array ->
  (announcement * Origin_validation.state) list ->
  outcome
(** {!compute} from a {!policy_vector} and {!classify}d announcements — the
    complete input a RIB depends on besides the topology.  Raises
    [Invalid_argument] if [policy] does not cover the topology. *)

val route : rib -> int -> entry option
val next_hop : entry -> int option
