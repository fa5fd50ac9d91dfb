(** The relying party's persisted-state format.

    Every record kind a {!Rpki_persist.Store} chain of a relying party
    carries is written and read here, and only here: [meta] (name, AS,
    log epoch, RTR serial), [sth] (the signed tree head), [obs] (one
    transparency-log observation), [peer] (a gossip-verified peer head),
    [ckpt] (a segment's checkpoint: the previous head and the consistency
    proof from it), [vrps] (the whole VRP set, in a base) and [vrps-diff]
    (added and removed VRPs, in a segment whose save saw the set change).
    None of it needs a vantage; {!Relying_party.restore} adds the checks
    that do. *)

open Rpki_core

type persisted = {
  p_name : string;
  p_asn : int;
  p_epoch : int;
  p_rtr_serial : int;
  p_sth : Rpki_transparency.Log.signed_head;
  p_log : Rpki_transparency.Log.t;
  p_peers : (string * Rpki_transparency.Log.head) list;
      (** in {!Relying_party.peer_heads} order *)
  p_vrps : Vrp.t list;
}
(** What a chain persists, decoded: the newest container's identity, signed
    head and peer heads, the log its observations replay into, and the VRP
    set the chain restores to. *)

type mark = {
  pm_obs : int;                         (** observations the chain holds *)
  pm_head : Rpki_transparency.Log.head; (** the head they were sealed under *)
  pm_vrps : Vrp.t list;                 (** the set the chain restores to *)
}
(** Where a chain left off: what the next segment's checkpoint and VRP diff
    are taken against. *)

val log_id : name:string -> epoch:int -> string
(** The transparency-log id of a vantage's incarnation: [name] at epoch 0,
    [name/e<epoch>] after. *)

val mark : persisted -> mark
(** The mark a chain that persists this state leaves off at. *)

val base : persisted -> Rpki_persist.Codec.record list
(** The records of a base: meta, signed head, every observation in log
    order, the peer heads and the full VRP set; no checkpoint. *)

val segment : persisted -> since:mark -> Rpki_persist.Codec.record list
(** The records of a segment appended to a chain that left off at [since]:
    meta, signed head, a checkpoint from [since]'s head, the observations
    appended since, the peer heads and, when the set changed, one VRP
    diff. *)

val read_chain : Rpki_persist.Codec.snapshot list -> (persisted, string) result
(** Read a chain, base first, with every check that needs no vantage: each
    record's shape and bounds, at most one meta, signed head and
    checkpoint per container, each segment's checkpoint naming the
    previous head and its consistency proof, the observations replaying
    into exactly the newest head's log id, size and root, and the VRP
    diffs composing.  [Error] says why a chain was refused; it never
    raises. *)
