(** The transport layer between a relying party and the repositories.

    A transport prices every repository request in virtual "transport
    ticks": a latency oracle (normally wired to the BGP data plane by the
    simulation layer — the paper's Section 6 circularity expressed as time)
    plus per-point fault state that operators or adversaries may set.  The
    relying party's fetch policy spends those ticks against per-point
    timeouts and a total sync budget.

    A zero-latency fault-free transport ({!instant}) is behaviourally
    identical to PR 1's boolean reachability oracle; the incremental-sync
    equivalence property is asserted under exactly that transport. *)

type fault =
  | Healthy
  | Slow of int        (** additive latency on every request *)
  | Stalling of int    (** Stalloris-style trickle: multiplies transfer time *)
  | Unreachable        (** black-holed: no route at all *)
  | Refused            (** connection refused — fails as fast as unreachable,
                           but the relying party attributes it differently *)
  | Dns_failure        (** no address associated with name *)
  | Timing_out         (** connect timeout: every attempt outlives the
                           caller's timeout, like a total stall *)
  | Redirect of string (** cross-origin redirect to the given origin; RPs
                           refuse to follow, so the fetch fails fast *)

type t
(** Opaque transport state: latency oracle + per-URI fault table. *)

val create :
  ?latency_of:(Pub_point.t -> int option) -> ?failure_cost:int -> unit -> t
(** [latency_of] prices a request to a point ([None] = no route; default:
    everything reachable at zero cost).  [failure_cost] (default 1) is the
    time burned discovering that a point is unroutable. *)

val instant : unit -> t
(** Zero latency, zero failure cost, no faults — the PR-1 oracle. *)

val of_oracle : (Pub_point.t -> bool) -> t
(** A zero-latency transport gated by a boolean reachability oracle. *)

val set_latency_of : t -> (Pub_point.t -> int option) -> unit
(** Swap the latency oracle (the simulation layer points it at each tick's
    data plane). *)

val set_fault : t -> uri:string -> fault -> unit
(** Set a point's fault state; [Healthy] clears it. *)

val fault_of : t -> uri:string -> fault
val clear_fault : t -> uri:string -> unit
val clear_faults : t -> unit

val faults : t -> (string * fault) list
(** Every non-healthy point. *)

val set_view : t -> uri:string -> (unit -> (string * string) list) -> unit
(** Install a split view: {!fetch}es of [uri] {e through this transport}
    serve the given listing instead of the point's published content — the
    mirror-world primitive (a misbehaving authority, or an on-path
    adversary, discriminating by requester).  Timing and faults are
    unaffected; only the payload forks.  Other transports (other vantages)
    keep seeing the genuine listing, which is exactly what the transparency
    layer's gossip is built to catch. *)

val clear_view : t -> uri:string -> unit

val probe :
  t -> point:Pub_point.t -> timeout:int ->
  [ `Ok of int | `Stalled of int | `Unroutable of int ]
(** Price one request: [`Ok dt] completes within [timeout]; [`Stalled t]
    would outlive it (the caller's time is spent either way); [`Unroutable]
    fails fast.  A [Stalling k] fault prices the transfer at
    [(base_latency + 1) * k], so even a zero-latency link stalls once
    throttled. *)

type reply =
  | Served of { files : (string * string) list; fp : string; elapsed : int }
  | Stalled of { elapsed : int }
  | Unroutable of { elapsed : int }

val fetch : t -> point:Pub_point.t -> timeout:int -> reply
(** {!probe}, then on success the point's current listing + fingerprint. *)
