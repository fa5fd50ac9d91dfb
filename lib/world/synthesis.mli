(** Synthesizing an RPKI universe onto a generated AS graph.

    The paper's model world (Figure 2) at any size: address space is
    allocated proportionally to customer-cone size (a spanning tree of the
    provider DAG walked in preorder hands each AS one /24 of 10.0.0.0/8 and
    each subtree a contiguous range); a CA hierarchy mirrors the provider
    hierarchy (an RIR-like trust anchor, a CA per tier-1 and per
    big-enough transit, each certified for its subtree range and publishing
    from a repository hosted inside its own /24 — the Section 6
    circularity at scale); ROAs cover a configurable fraction of ASes.

    The designated victim (the deepest stub) always has a ROA {e and} a
    covering aggregate ROA signed to its CA's ASN, so suppressing the
    victim's ROA — the split-view / whack move — turns its route invalid
    rather than unknown (the Side Effect 6 shape). *)

open Rpki_repo
open Rpki_bgp

type spec = {
  graph : As_graph.spec;
  ca_min_cone : int;     (** transits with a subtree at least this big get CAs *)
  roa_coverage : float;  (** fraction of ASes whose /24 gets a ROA *)
  key_bits : int option; (** [None] = {!Rpki_crypto.Rsa.default_bits} *)
  validity : int option;
  refresh_interval : int option;
}

val default_spec : spec
(** {!As_graph.default_spec} (1000 ASes), CAs for subtrees of 25+, 30% ROA
    coverage. *)

type world

val build : spec -> world
(** Deterministic in [spec].  Raises [Invalid_argument] on empty-stub
    worlds, more than 65536 ASes, or [roa_coverage] outside [0,1]. *)

val graph : world -> As_graph.t
val universe : world -> Universe.t
val root : world -> Authority.t
(** The RIR-like trust anchor; its TAL seeds the relying parties. *)

val cas : world -> (int * Authority.t) list
(** Host ASN and authority of every CA below the root, ascending ASN. *)

val prefix_of : world -> int -> Rpki_ip.V4.Prefix.t
(** The /24 allocated to an AS.  Raises [Invalid_argument] on unknown
    ASNs. *)

val roa_of : world -> int -> string option
(** The AS's own-ROA publication filename, when covered. *)

val host_addr : world -> asn:int -> host:int -> Rpki_ip.Addr.V4.t
(** An address inside the AS's /24 — repository, monitor-endpoint and probe
    placement. *)

val victim : world -> int
val victim_ca : world -> Authority.t
val victim_roa : world -> string
(** The fork / whack target: the victim's own ROA's publication filename
    at {!victim_ca}'s repository. *)

val rp_asn : world -> int
(** Where the primary relying party sits: the best-connected stub other
    than the victim. *)

val announcement_for : world -> int -> Propagation.announcement
(** The AS originating its own /24. *)

val base_announcements : world -> Propagation.announcement list
(** The routes the scenarios need: every repository-hosting AS, the victim
    and the relying party's AS, each originating its /24.  Kept small: the
    data plane computes one RIB per announced prefix. *)

val summary : world -> string
(** One line: graph shape, CA/ROA counts, victim and RP placement. *)
