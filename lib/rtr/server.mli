(** The RTR serving plane: one cache, thousands of routers, encode-once
    deltas.

    A {!Session.cache} answers one router at a time, and {!Session.serve}
    re-encodes the response PDUs on every call.  Production relying parties
    fan one validated view out to thousands of concurrent RTR sessions, so
    this module multiplexes a single cache behind a server that

    - keeps a {e shared delta buffer} per base serial: the response bytes
      (Cache Response … End of Data) for "serial [s] → current" are encoded
      exactly once and replayed verbatim to every session that is at [s] —
      bytes encoded per serial is flat in the session count;
    - {e batches serial-notify}: publishes mark the server dirty, and one
      {!flush} fans a single Serial Notify out to every session, rapid
      republishes between flushes coalescing into one batch;
    - tracks each session as nothing more than its embedded
      {!Session.router} state and the Cache Resets it took; and
    - {e applies each response once per distinct router state}: a
      router's state is one immutable {!Session.state} and a response moves
      it by the pure {!Session.transition}, so every session holding the
      same state value that receives the same buffer shares one decode,
      one merge and one resulting table.

    The underlying cache state machine is unchanged and reachable via
    {!cache} for code that predates the server (the loop's persistence
    path, single-router tests); everything that mutates it should go
    through the forwarding functions here so buffer invalidation and
    notify batching stay correct. *)

open Rpki_core
open Rpki_ip

type t
(** A multiplexed RTR server over one {!Session.cache}. *)

type session
(** A registered router session: embedded router state machine and reset
    count.  Handles stay valid until {!detach}. *)

val create : ?history_limit:int -> unit -> t
(** A server over a fresh cache (same defaults as
    {!Session.create_cache}). *)

val cache : t -> Session.cache
(** The underlying cache: serial, VRPs, holds and data age are read
    straight off it.  Mutations must go through the server. *)

(** {2 The publishing side}

    Forwarders for the cache mutators.  Each call that changes the
    router-visible state invalidates the shared buffers and marks a notify
    pending; none of them contacts a session — that is {!flush}'s job, so
    any number of publishes between flushes cost one notify fan-out. *)

val publish : t -> Vrp.t list -> unit

val publish_diff : ?expect_base:int64 -> t -> Vrp.diff -> unit
(** See {!Session.publish_diff}; raises {!Session.Base_mismatch} when
    [expect_base] disagrees with the feed. *)

val set_data_age : t -> int -> unit

val set_unsafe : t -> int -> unit
(** Record how many unsafe VRPs sit behind the published set (reported by
    the relying party's unsafe-VRP analysis).  Pure annotation: routers
    never see it on the wire, and nothing reads it back yet. *)

val hold : t -> prefix:V4.Prefix.t -> vrps:Vrp.t list -> unit
val release : t -> prefix:V4.Prefix.t -> unit

val restore : t -> serial:int -> vrps:Vrp.t list -> unit
(** Rehydrate after a restart ({!Session.restore}); the next flush always
    notifies.  A restore that keeps both the cache's serial and its
    router-visible set resets nobody.  Any other restore gives every
    session one Cache Reset at the next flush, so each ends it on the
    restored set — a session at the restored serial may hold a different
    set, and the next delta would not apply to it.  Raises
    [Invalid_argument] for a serial of 2^32 or more, as
    {!Session.restore} does, and leaves the server as it was. *)

(** {2 Sessions} *)

val attach : t -> session
(** Register a router.  It converges at the next {!flush} (or call
    {!flush} immediately to seed it). *)

val detach : t -> session -> unit
(** Deregister; the handle is dead afterwards. *)

val session_count : t -> int

val session_serial : session -> int

val session_synced : t -> session -> bool
(** Attached, on the cache's session and serial, and holding exactly the
    cache's current VRP set ({!Session.router_in_sync}). *)

val session_vrps : session -> Vrp.t list

val session_resets : session -> int
(** Cache Resets it has taken. *)

(** {2 The notify batch} *)

val pending : t -> bool
(** Whether the router-visible state changed since the last flush. *)

type flush_report = {
  fr_serial : int;     (** the serial the batch converged sessions to *)
  fr_notified : int;   (** sessions that received the Serial Notify *)
  fr_advanced : int;   (** sessions that pulled an incremental delta *)
  fr_resets : int;     (** sessions that took a Cache Reset + full snapshot *)
  fr_skipped : int;    (** sessions already at the serial (notify only) *)
  fr_coalesced : int;  (** state-changing publishes absorbed into this batch
                           beyond the first *)
}

val flush : ?domains:int -> t -> flush_report
(** One batched notify fan-out: encode the Serial Notify once, deliver it
    to every session, and drive each session back to convergence from the
    shared buffers — encoding each needed response exactly once
    ({!Session.response}), replaying bytes for every further session at
    the same serial.  A no-op report (all zeros except [fr_serial]) when
    nothing is {!pending} and every session is synced.

    Each distinct transition — a router state value and the response
    buffer it receives, told apart by physical identity — is computed once,
    before the fan-out, and its result installed in every session that
    held that state.  Sessions attached together therefore share one state
    from then on; sessions that reached equal tables by different paths
    hold distinct values until their next reset.  Nothing is kept from one
    flush to the next.  The flush then accounts each session's exchange
    and installs its new state, in one pass on the calling Domain.

    [domains] is ignored.  Once the transitions are shared, the fan-out
    only adds up byte counts and installs states, and spreading it across
    Domains cost more than it saved at every session count measured
    (EXPERIMENTS.md, rtr).  The parameter stays only because the
    benchmark's replica of [Loop.step] still passes it; it goes when that
    replica is re-baselined. *)

val all_synced : t -> bool
(** Every attached session is {!session_synced}. *)

(** {2 Accounting} *)

type stats = {
  serial_bumps : int;   (** how many changed the router-visible state *)
  notify_batches : int; (** flushes that fanned out a notify *)
  coalesced : int;      (** serial bumps absorbed into an already-pending
                            batch — republishes routers never saw
                            individually *)
  encode_calls : int;   (** distinct response encodings performed *)
  bytes_encoded : int;  (** response bytes actually encoded — the encode-once
                            metric: flat in the session count *)
  bytes_sent : int;     (** response + notify bytes delivered to sessions —
                            grows with the session count *)
  bytes_received : int; (** query bytes received from sessions *)
  replays : int;        (** responses answered from an already-encoded
                            buffer *)
  resets : int;         (** Cache Reset decisions served *)
  transitions : int;    (** distinct (router state, response) transitions
                            computed: one per path sessions take through
                            a flush, not one per session *)
}

val stats : t -> stats
(** Cumulative since {!create}. *)
