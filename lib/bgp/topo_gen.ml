(* Synthetic Internet-like AS topologies.

   Since the world generator landed, this module is a thin front-end over
   {!As_graph}: [generate] delegates to [As_graph.tiered] (the fixed-depth
   hierarchy the earlier experiments were built on), and [small_scenario]
   wraps the fixed Table-6 topology.  New code should use {!As_graph}
   directly — the power-law generator scales to thousands of ASes and
   carries roles, degrees and customer cones. *)

type spec = {
  tier1 : int;            (* size of the top clique *)
  tier2 : int;
  stubs : int;
  providers_per_tier2 : int;
  providers_per_stub : int;
  peer_fraction : float;  (* probability of lateral tier-2 peering *)
  seed : int;
}

let default_spec =
  { tier1 = 4; tier2 = 20; stubs = 100; providers_per_tier2 = 2; providers_per_stub = 2;
    peer_fraction = 0.1; seed = 7 }

type generated = {
  topo : Topology.t;
  graph : As_graph.t;     (* the same topology with world-generator metadata *)
  tier1_asns : int list;
  tier2_asns : int list;
  stub_asns : int list;
}

let generate (spec : spec) =
  let graph =
    As_graph.tiered ~tier1:spec.tier1 ~tier2:spec.tier2 ~stubs:spec.stubs
      ~providers_per_tier2:spec.providers_per_tier2
      ~providers_per_stub:spec.providers_per_stub ~peer_fraction:spec.peer_fraction
      ~seed:spec.seed ()
  in
  (* the tiered ASN ranges are part of this module's contract *)
  let in_range lo hi asn = asn >= lo && asn < hi in
  let all = As_graph.asns graph in
  { topo = As_graph.topology graph;
    graph;
    tier1_asns = List.filter (in_range 100 1000) all;
    tier2_asns = List.filter (in_range 1000 10000) all;
    stub_asns = List.filter (in_range 10000 max_int) all }

(* The small fixed topology used by the Table 6 and Section 6 narratives:

              T1a ===== T1b          (tier-1 peers)
             /   \      /  \
          Mid1   Mid2 Mid3  Attacker(AS 666)
           |       \   /
         Victim    Source

   Victim originates the protected prefix; Source is a typical relying
   party; Attacker is multihomed high in the hierarchy, the hard case. *)
type small = {
  small_topo : Topology.t;
  t1a : int; t1b : int;
  mid1 : int;
  victim : int;
  source : int;
  attacker : int;
}

let small_scenario () =
  let topo = Topology.create () in
  let t1a = 100 and t1b = 101 in
  let mid1 = 1001 and mid2 = 1002 and mid3 = 1003 in
  let victim = 17054 and source = 7018 and attacker = 666 in
  Topology.peer topo t1a t1b;
  Topology.link topo ~provider:t1a ~customer:mid1;
  Topology.link topo ~provider:t1a ~customer:mid2;
  Topology.link topo ~provider:t1b ~customer:mid3;
  Topology.link topo ~provider:t1b ~customer:attacker;
  Topology.link topo ~provider:mid1 ~customer:victim;
  Topology.link topo ~provider:mid2 ~customer:source;
  Topology.link topo ~provider:mid3 ~customer:source;
  { small_topo = topo; t1a; t1b; mid1; victim; source; attacker }

let small_graph (s : small) = As_graph.of_topology ~tier1:[ s.t1a; s.t1b ] s.small_topo
