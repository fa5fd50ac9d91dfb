(** The fault-mix engine: corpus-weighted background faults for a run.

    Wraps {!Fault_corpus}'s weighted sampler in a per-tick injection loop:
    each target authority independently draws against the fault rate, and a
    firing draw injects the sampled category as a real misbehavior —
    authority-side ({!Authority.expire_crl}, {!Authority.withhold_manifest},
    seqnum gaps, expired / forward-dated ROAs, RFC 3779 overclaims,
    manifest-number regressions) or transport-side (DNS failure, refused /
    timed-out connects, cross-origin redirects on every given transport).
    Faults age out after [repair_after] ticks and the engine runs the
    matching repair, so the mix churns instead of decaying monotonically.

    All randomness flows through one seeded generator consumed in a fixed
    order; at [rate = 0.] the generator is never consulted and nothing is
    touched, so a rate-zero run is byte-identical to one without the engine
    (pinned by the QCheck suite). *)

open Rpki_core

type active = {
  af_authority : string;
  af_at : Rtime.t;                (** when it was injected *)
  af_repair : now:Rtime.t -> unit;
}

type injection = {
  inj_category : Fault_corpus.category;
  inj_description : string;
}

type t

val create : seed:int -> rate:float -> ?repair_after:int -> unit -> t
(** [rate] is each target's per-tick fault probability, in [\[0,1\]];
    [repair_after] (default 4) is how many ticks an injected fault lives
    before the engine repairs it. *)

val tick :
  t -> targets:Authority.t list -> transports:Transport.t list -> now:Rtime.t ->
  injection list
(** One engine step: repair aged-out faults, then roll every target.
    Transport-category faults are set on every transport in [transports]
    (a dead server is dead for all clients).  Returns this tick's fresh
    injections. *)

val active : t -> active list
(** Currently live (unrepaired) faults. *)

val injected : t -> int
(** Total injections since creation. *)

val repaired : t -> int

val counts : t -> (Fault_corpus.category * int) list
(** Injection counts per category, in corpus-table order; categories never
    fired are omitted. *)
