(** The paper's model RPKI (Figure 2), reconstructed from the text.

    Every object is pinned by a claim in the prose — see the implementation
    header and EXPERIMENTS.md for the reconstruction argument.  The fixture
    is the substrate for most experiments and integration tests. *)

open Rpki_core

type t = {
  universe : Universe.t;
  arin : Authority.t;          (** trust anchor, 63.0.0.0/8 *)
  sprint : Authority.t;        (** RC 63.160.0.0/12 *)
  etb : Authority.t;           (** RC 63.170.0.0/16 *)
  continental : Authority.t;   (** RC 63.174.16.0/20, repo at 63.174.23.0 *)
  roa_sprint_1 : string;       (** (63.161.0.0/16-24, AS 1239) *)
  roa_etb : string;            (** (63.170.0.0/16, AS 19429) *)
  roa_target20 : string;       (** (63.174.16.0/20, AS 17054) — whack target 1 *)
  roa_target22 : string;       (** (63.174.16.0/22, AS 7341) — whack target 2 *)
  roa_cb_25 : string;          (** (63.174.25.0/24, AS 17054) *)
  roa_cb_26 : string;          (** (63.174.26.0/24, AS 17054) *)
  roa_cb_28 : string;          (** (63.174.28.0/24, AS 17054) *)
}

val as_sprint : int
val as_etb : int
val as_continental : int
val as_arin_host : int

val sprint_repo_addr : Rpki_ip.Addr.V4.t

val continental_repo_addr : Rpki_ip.Addr.V4.t
(** The paper's 63.174.23.0 — inside Continental's own certified space,
    which is what makes Section 6 circular. *)

val build :
  ?validity:int -> ?refresh_interval:int -> unit -> t
(** Construct the full hierarchy with real keys and publication points.
    [validity] / [refresh_interval] (defaults
    {!Authority.default_validity} / {!Authority.default_refresh}) apply to
    every authority — short windows let the stall experiments age a starved
    relying party's cache to expiry within a few ticks. *)

val add_fig5_right_roa : t -> now:Rtime.t -> string
(** Issue Sprint's covering ROA (63.160.0.0/12-13, AS 1239) — the Figure 5
    (right) / Side Effect 5 trigger.  Returns its filename. *)

val relying_party :
  ?name:string -> ?asn:int -> ?grace:int -> t -> Relying_party.t
(** A relying party configured with ARIN as its single trust anchor. *)

val render : t -> string
(** The hierarchy as indented text — Figure 2 in ASCII. *)
