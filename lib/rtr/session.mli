(** RTR cache-server and router-client state machines (RFC 6810 section 4).

    The cache stores the current VRP set plus a window of serial-numbered
    deltas — the same {!Vrp.diff} the relying party emits per sync — so a
    Serial Query is answered by composing stored deltas rather than
    diffing full snapshots.  Every exchange round-trips through the
    byte-exact {!Pdu} encoding.

    This module is the {e protocol core}: one cache, and the router state
    machine that talks to it.  Production relying parties fan the same
    cache out to thousands of routers — that multiplexed serving plane,
    with shared encode-once response buffers and batched serial-notify,
    is {!Server}; {!serve} below remains the one-session path it is built
    from (and the compatibility surface for code that predates it). *)

open Rpki_core
open Rpki_ip

(** {2 Cache (server) side} *)

type cache
(** Opaque cache state: session id, serial, current set, delta window. *)

val create_cache : ?session_id:int -> ?history_limit:int -> unit -> cache
(** [history_limit] bounds the retained delta window; serial queries from
    before the window are answered with Cache Reset. *)

val cache_session_id : cache -> int
val cache_serial : cache -> int

val cache_vrps : cache -> Vrp.t list
(** The currently installed (normalized) VRP set. *)

val cache_index : cache -> Origin_validation.index
(** The origin-validation index of {!cache_vrps}: what routers fed by this
    cache classify against.  Built on first demand, then patched with each
    serial delta, so a tick that changes nothing costs nothing; it
    classifies exactly as [Origin_validation.build (cache_vrps cache)]. *)

val set_data_age : cache -> int -> unit
(** Record the staleness of the relying-party data behind the current set
    (see {!Rpki_repo.Relying_party.max_data_age}).  Clamped at 0. *)

val cache_data_age : cache -> int
(** The serial says how current the {e protocol} state is; the data age says
    how current the {e data} is.  A cache fed from stale copies keeps
    bumping serials over old data — this is how routers and monitors can
    tell the difference.  0 until {!set_data_age} is called. *)

val publish : cache -> Vrp.t list -> unit
(** Install a new VRP set (e.g. after each relying-party sync); bumps the
    serial and records a delta only when the set actually changed.  The
    serial is an RFC 1982 serial number of 32 bits: 2^32 - 1 bumps to 0. *)

exception
  Base_mismatch of {
    expected : int64;  (** fingerprint the producer computed its diff against *)
    actual : int64;    (** fingerprint of the set the cache actually holds *)
  }
(** Raised by {!publish_diff} when [expect_base] disagrees with the cache's
    feed: the diff was computed against some other set, and applying it
    would silently corrupt the delta window (routers would receive
    withdrawals of VRPs they never held, or miss announcements). *)

val feed_fingerprint : cache -> int64
(** {!Vrp.fingerprint} of the relying-party feed the cache holds (holds
    excluded) — what {!publish_diff}'s [expect_base] is checked against. *)

val publish_diff : ?expect_base:int64 -> cache -> Vrp.diff -> unit
(** Install a relying party's sync diff directly as the next serial delta.
    The diff must be relative to the cache's current feed — which holds when
    the cache is fed every sync of one relying party (empty diffs are
    no-ops).  Pass [expect_base] (the {!Vrp.fingerprint} of the set the
    diff was computed against) to have that precondition {e checked}:
    a disagreement raises {!Base_mismatch} instead of corrupting the
    window.  Without [expect_base] the historical unchecked behaviour is
    kept. *)

val hold : cache -> prefix:V4.Prefix.t -> vrps:Vrp.t list -> unit
(** Evidence-triggered freeze: pin every VRP covered by [prefix] at the
    given last-good set.  Takes effect immediately (serial bump if the
    router-visible set changes) and survives subsequent {!publish} /
    {!publish_diff} calls until {!release}d.  A second hold on the same
    prefix replaces the first. *)

val release : cache -> prefix:V4.Prefix.t -> unit
(** Drop the hold on [prefix]; the relying party's feed shows through again
    on the next republish (immediate serial bump if it differs). *)

val cache_holds : cache -> (V4.Prefix.t * Vrp.t list) list
(** Active holds, newest first. *)

val restore : cache -> serial:int -> vrps:Vrp.t list -> unit
(** Rehydrate from a persisted (serial, VRP set) pair after a restart.  The
    delta window is empty — non-matching routers take one Cache Reset — but
    the serial line continues instead of restarting from 0.  Clears holds.
    A negative serial restores as 0.  Raises [Invalid_argument] for a
    serial of 2^32 or more, which no Serial Notify could carry, and leaves
    the cache as it was. *)

val notify : cache -> Pdu.t
(** The Serial Notify a cache would push to connected routers. *)

val changes_since : cache -> serial:int -> (Vrp.t list * Vrp.t list) option
(** [(announced, withdrawn)] net of delta composition since [serial] —
    VRPs that flapped within the window are cancelled out; [None] when
    [serial] has left the retained window.  How far back [serial] lies is
    the RFC 1982 distance [(cache serial - serial) mod 2^32], so a router
    just before a wrap gets a delta across it. *)

val serve : cache -> string -> string
(** Handle one encoded client request, returning the encoded response
    sequence (Cache Response … End of Data, or Cache Reset, or an Error
    Report).

    This is the one-session path: every call re-encodes the response from
    scratch.  Serving many routers from one cache goes through {!Server},
    which encodes each serial diff exactly once and replays the bytes;
    [serve] is kept as the single-router compatibility shim and as the
    reference the multiplexed plane is tested against. *)

(** {2 Router (client) side} *)

type router
(** A router: a mutable cell holding its current {!state}. *)

type state
(** A router's (session, serial) and the VRP table it holds, as one
    immutable value.  The table is a sorted ({!Vrp.compare}),
    duplicate-free array, one word per VRP, searched by bisection.  A
    response moves a router by replacing its state whole with
    {!transition}'s result, so routers at one state value can share both
    the transition and the table it builds: {!Server} computes each
    distinct transition of a flush once and installs the result in every
    session that held that state. *)

val fresh : state
(** No session, serial 0, no VRPs: where every new router starts, and where
    a router starts over from after a Cache Reset.  One value, so all the
    routers that start over share it. *)

val create_router : unit -> router

val router_state : router -> state
val set_router_state : router -> state -> unit

val reset_router : router -> unit
(** Set the router to {!fresh}: the client side of acting on a Cache
    Reset, before issuing a fresh Reset Query.  {!synchronize} does this
    internally. *)

val router_session : router -> int option
val router_serial : router -> int

val router_vrps : router -> Vrp.t list
(** The table as a normalized list (sorted, duplicate-free). *)

val router_in_sync : router -> cache -> bool
(** On the cache's session and serial, holding exactly its current VRP
    set. *)

val transition :
  state -> string -> (state * [ `Synced | `Reset_required ], state * string) result
(** The state an encoded cache response leads to, and how the response
    ended; a pure function of the state and the bytes.

    The PDUs apply in order: an announce of a VRP already held is a no-op,
    and a withdrawal of a VRP not held — counting the earlier PDUs of the
    same response — fails with ["withdrawal of unknown VRP"] at that PDU,
    before any later error.  IPv6 prefixes are carried and ignored.  A
    Cache Response sets the session; serial and table change only at a good
    End of Data.  A response that breaks the protocol gives [Error] with
    the reason and the state it leaves: the old one, on the Cache
    Response's session if it got that far.  A Cache Reset clears the
    session and answers [`Reset_required].

    Raises {!Pdu.Parse_error} on bytes that do not decode, and nothing
    else.

    Cost, for Δ prefix PDUs against a table of V VRPs: O(Δ log Δ + Δ log V)
    to check them and O(V + Δ) to build the new table, which happens only
    when the response changes it (otherwise the new state shares the old
    table).  PDUs that arrive sorted, as a snapshot from this cache does,
    skip the sort, so a full snapshot into an empty table costs O(V) once
    decoded and O(V log V) at worst. *)

exception Protocol_error of string

val apply_response : router -> string -> [ `Synced | `Reset_required ]
(** {!transition} from the router's state, installed in the router.
    Raises {!Pdu.Parse_error} on bytes that do not decode, leaving the
    router as it was, and {!Protocol_error} on a response that breaks the
    protocol, after installing the state {!transition} gives for it;
    nothing else. *)

val synchronize : router -> cache -> Vrp.t list
(** One synchronisation round: incremental when the session and serial
    allow, otherwise a full reset.  Returns the router's resulting VRPs. *)
