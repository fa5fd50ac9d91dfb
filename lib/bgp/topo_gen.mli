(** Synthetic Internet-like AS topologies.

    A thin front-end over {!As_graph} since the world generator landed:
    [generate] delegates to {!As_graph.tiered} (tier-1 clique, multihomed
    tier-2 ISPs with lateral peerings, stub ASes), and the fixed Table-6
    scenario gains an {!As_graph.of_topology} wrapper.  New code wanting
    internet-scale graphs should use {!As_graph.generate} directly. *)

type spec = {
  tier1 : int;
  tier2 : int;
  stubs : int;
  providers_per_tier2 : int;
  providers_per_stub : int;
  peer_fraction : float;
  seed : int;
}

val default_spec : spec
(** 4 tier-1s, 20 tier-2s, 100 stubs. *)

type generated = {
  topo : Topology.t;
  graph : As_graph.t;  (** the same topology with world-generator metadata
                           (roles, degrees, customer cones) *)
  tier1_asns : int list;
  tier2_asns : int list;
  stub_asns : int list;
}

val generate : spec -> generated
(** Deterministic in [spec.seed]. *)

(** The small fixed topology used by the Table 6 and Section 6 narratives:
    two peered tier-1s, three mid ISPs, a victim, a multihomed source, and
    an attacker homed high in the hierarchy. *)
type small = {
  small_topo : Topology.t;
  t1a : int;
  t1b : int;
  mid1 : int;
  victim : int;   (** AS 17054 *)
  source : int;   (** AS 7018, the observing relying party *)
  attacker : int; (** AS 666 *)
}

val small_scenario : unit -> small

val small_graph : small -> As_graph.t
(** The fixed topology wrapped in world-generator metadata ([t1a]/[t1b]
    classed tier-1). *)
