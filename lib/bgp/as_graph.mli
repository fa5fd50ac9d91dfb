(** Internet-like AS graphs with power-law degree distributions.

    Graphs are grown the way the Internet grew: a fully peered tier-1
    clique, then preferential attachment — each new AS multihomes to
    providers drawn with probability proportional to their current degree
    (Barabasi-Albert), yielding the heavy-tailed (CAIDA-like) degree
    distribution of the real AS graph; degree-biased lateral peerings are
    sprinkled among transit ASes.

    Valley-freeness holds by construction: customer-provider edges always
    run from an existing AS to the newly attached one, so the provider
    relation is a DAG and every AS has a provider chain into the tier-1
    clique — any stub's announcement reaches the whole graph under
    Gao-Rexford export.

    [of_topology] wraps hand-built topologies (the fixed paper scenarios)
    in the same metadata — roles, degrees, customer cones — so generated
    and fixed worlds share one analysis surface. *)

type role = Tier1 | Transit | Stub

type spec = {
  ases : int;            (** total AS count *)
  tier1 : int;           (** size of the fully peered top clique *)
  attach : int;          (** provider links per newly attached AS *)
  peer_fraction : float; (** lateral transit peerings, as a fraction of [ases] *)
  seed : int;
  first_asn : int;       (** ASNs are [first_asn .. first_asn + ases - 1] *)
}

val default_spec : spec
(** 1000 ASes, a 5-wide tier-1 clique, 2 providers per AS, seed 11. *)

type t

val generate : spec -> t
(** Deterministic in [spec.seed].  Raises [Invalid_argument] on
    non-positive sizes or [ases < tier1]. *)

val tiered :
  tier1:int ->
  tier2:int ->
  stubs:int ->
  providers_per_tier2:int ->
  providers_per_stub:int ->
  peer_fraction:float ->
  seed:int ->
  unit ->
  t
(** The fixed-depth hierarchy the pre-world {!Topo_gen} generated (tier-1
    clique, multihomed tier-2s with lateral peerings, stubs homed to
    tier-2s), as a second front-end over the same metadata machinery.
    ASNs: tier-1 from 100, tier-2 from 1000, stubs from 10000. *)

val of_topology : ?tier1:int list -> Topology.t -> t
(** Wrap an existing topology.  [tier1] names the clique explicitly;
    by default every provider-less AS is classed tier-1.  Raises
    [Invalid_argument] if the provider relation is not a DAG. *)

val topology : t -> Topology.t

val size : t -> int
val asns : t -> int list
(** All ASNs, sorted. *)

val role : t -> int -> role
(** Tier-1 = named clique (or provider-less); stub = no customers;
    transit = the rest.  Raises [Invalid_argument] on unknown ASNs. *)

val degree : t -> int -> int
val cone_size : t -> int -> int
(** Customer-cone size (self included): how many ASes sit at or below this
    AS in the provider hierarchy — the standard proxy for ISP weight, used
    to size prefix allocations in synthesized worlds. *)

val tier1s : t -> int list
val transits : t -> int list
val stubs : t -> int list

val by_degree : t -> int list
(** ASNs by descending degree, ties toward the lower ASN — vantage
    placement order for degree-based policies. *)

type degree_stats = {
  d_max : int;
  d_median : int;
  d_mean : float;
}

val degree_stats : t -> degree_stats

val summary : t -> string
(** One line: sizes per role and the degree statistics. *)
