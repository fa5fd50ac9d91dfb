(* The RTR serving plane: one cache multiplexed to thousands of router
   sessions, with encode-once shared response buffers and batched
   serial-notify.

   The protocol state machines live in [Session]; this module owns the
   fan-out.  At any moment the response to "I am at serial s" is the same
   byte string for every session at s, so it is encoded once into a shared
   buffer keyed by s and replayed.  Publishes never touch a session — they
   invalidate the buffers and mark a notify pending; [flush] then sends one
   Serial Notify to everybody and drives every session back to
   convergence, which is how rapid republishes within a tick coalesce into
   a single fan-out.

   A router's state is one immutable value and a response moves it by a
   pure [Session.transition], so sessions holding the same state value that
   receive the same buffer reach the same next state.  [flush] computes
   each distinct (state, buffer) transition once, sequentially, and
   installs its result in every session that held that state: sessions on
   one path decode once and share one table.  Sessions that reached equal
   tables by different paths hold different values and stay apart until
   their next reset.  The fan-out that follows only accounts bytes and
   installs states, in one pass on the calling Domain. *)

open Rpki_core

type session = {
  router : Session.router;
  mutable resets : int; (* Cache Reset PDUs acted upon *)
  mutable live : bool;
}

type stats = {
  serial_bumps : int;
  notify_batches : int;
  coalesced : int;
  encode_calls : int;
  bytes_encoded : int;
  bytes_sent : int;
  bytes_received : int;
  replays : int;
  resets : int;
  transitions : int;
}

type t = {
  cache : Session.cache;
  mutable sessions : session list; (* newest first; pruned on detach *)
  buffers : (int, string) Hashtbl.t;
      (* base serial -> encoded response bytes for base -> current; valid
         only for the cache's current serial (cleared on every bump) *)
  mutable snapshot : string option; (* encoded full Cache Response -> current *)
  reset_bytes : string;             (* the 8-byte Cache Reset, encoded once *)
  mutable dirty : bool;             (* router-visible state changed since the
                                       last flush *)
  mutable bumps_pending : int;      (* serial bumps since the last flush *)
  mutable reset_all : bool;         (* a restore moved the serial line: every
                                       session starts over at the next flush *)
  mutable serial_bumps : int;
  mutable notify_batches : int;
  mutable coalesced : int;
  mutable encode_calls : int;
  mutable bytes_encoded : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable replays : int;
  mutable resets : int;
  mutable transitions : int;
  mutable unsafe_count : int; [@warning "-69"]
      (* unsafe VRPs behind the published set.  Nothing reads it; it goes
         with [set_unsafe] in the benchmark re-baseline (ROADMAP item 1),
         since benchmark/ still calls it *)
}

let create ?history_limit () =
  { cache = Session.create_cache ?history_limit (); sessions = []; buffers = Hashtbl.create 32;
    snapshot = None; reset_bytes = Pdu.encode Pdu.Cache_reset; dirty = false;
    bumps_pending = 0; reset_all = false; serial_bumps = 0; notify_batches = 0;
    coalesced = 0; encode_calls = 0; bytes_encoded = 0; bytes_sent = 0;
    bytes_received = 0; replays = 0; resets = 0; transitions = 0; unsafe_count = 0 }

let cache t = t.cache

let stats t =
  { serial_bumps = t.serial_bumps;
    notify_batches = t.notify_batches; coalesced = t.coalesced;
    encode_calls = t.encode_calls; bytes_encoded = t.bytes_encoded;
    bytes_sent = t.bytes_sent; bytes_received = t.bytes_received;
    replays = t.replays; resets = t.resets; transitions = t.transitions }

(* --- the publishing side --- *)

(* Run a cache mutation; when it changed the router-visible state, drop the
   shared buffers (they encode paths to the old serial) and mark the notify
   pending.  A bump landing on an already-pending batch is a coalesced
   republish: routers will never see it as a separate notify. *)
let mutating ?(force = false) t f =
  let before = Session.cache_serial t.cache in
  f ();
  if force || Session.cache_serial t.cache <> before then begin
    Hashtbl.reset t.buffers;
    t.snapshot <- None;
    t.serial_bumps <- t.serial_bumps + 1;
    t.bumps_pending <- t.bumps_pending + 1;
    if t.dirty then t.coalesced <- t.coalesced + 1;
    t.dirty <- true
  end

let publish t vrps =
  mutating t (fun () -> Session.publish t.cache vrps)

let publish_diff ?expect_base t diff =
  mutating t (fun () -> Session.publish_diff ?expect_base t.cache diff)

let set_data_age t age = Session.set_data_age t.cache age

(* Unsafe-VRP accounting rides next to data age: a pure annotation on the
   published set, no PDU or buffer consequences. *)
let set_unsafe t n = t.unsafe_count <- n

let hold t ~prefix ~vrps = mutating t (fun () -> Session.hold t.cache ~prefix ~vrps)
let release t ~prefix = mutating t (fun () -> Session.release t.cache ~prefix)

(* A restore can land on the very serial it left off at, so the bump check
   cannot be trusted: force the next flush to renotify everybody.  Unless
   the restore kept both the serial and the set, a session's serial no
   longer names what it holds (a session at the restored serial may hold
   another set, and the next delta would not apply to it), so every session
   takes a Cache Reset at the next flush. *)
let restore t ~serial ~vrps =
  let serial_before = Session.cache_serial t.cache in
  let vrps_before = Session.cache_vrps t.cache in
  mutating ~force:true t (fun () -> Session.restore t.cache ~serial ~vrps);
  if
    Session.cache_serial t.cache <> serial_before
    || not (List.equal Vrp.equal (Session.cache_vrps t.cache) vrps_before)
  then t.reset_all <- true

(* --- sessions --- *)

let attach t =
  let s = { router = Session.create_router (); resets = 0; live = true } in
  t.sessions <- s :: t.sessions;
  s

let detach t s =
  s.live <- false;
  t.sessions <- List.filter (fun x -> x != s) t.sessions

let session_count t = List.length t.sessions

let session_serial s = Session.router_serial s.router
let session_vrps s = Session.router_vrps s.router
let session_resets (s : session) = s.resets

let session_synced t s = s.live && Session.router_in_sync s.router t.cache

(* --- the notify batch --- *)

let pending t = t.dirty

type flush_report = {
  fr_serial : int;
  fr_notified : int;
  fr_advanced : int;
  fr_resets : int;
  fr_skipped : int;
  fr_coalesced : int;
}

(* What one session needs this flush, decided from its router state alone. *)
type plan =
  | Skip                (* at the current serial: notify only *)
  | Delta of int        (* pull base -> current from the shared buffer *)
  | Reset_stale         (* serial query answered Cache Reset, then snapshot *)
  | Reset_fresh         (* no session yet: straight to Reset Query + snapshot *)

(* One flush's transitions, keyed by the physical identity of the router
   state and of the response bytes.  The hash is the length of the bytes
   alone: hashing the state reads into its table, which on 512 sessions
   cost as much as the rest of the flush, and the states that receive one
   buffer are few — one per group of sessions that took different paths
   (attached at different flushes, say), usually one. *)
module Transitions = Hashtbl.Make (struct
  type t = Session.state * string

  let equal (a, x) (b, y) = a == b && x == y
  let hash (_, bytes) = String.length bytes
end)

(* [?domains] is ignored: the flush runs on the calling Domain.  It stays
   only because benchmark/'s replica of [Loop.step] passes it, and goes
   with that replica's re-baseline (ROADMAP item 1, Stage B). *)
let flush ?domains:_ t =
  let cache = t.cache in
  let current = Session.cache_serial cache in
  let sid = Session.cache_session_id cache in
  (* 1. classify every session; memoize the window composition per distinct
     base serial so a thousand sessions at the same serial cost one
     [changes_since], not a thousand. *)
  let window = Hashtbl.create 8 in
  let changes base =
    match Hashtbl.find_opt window base with
    | Some r -> r
    | None ->
      let r = Session.changes_since cache ~serial:base in
      Hashtbl.replace window base r;
      r
  in
  let plan s =
    match Session.router_session s.router with
    | Some rsid when rsid = sid && not t.reset_all ->
      let base = Session.router_serial s.router in
      if base = current then Skip
      else (match changes base with Some _ -> Delta base | None -> Reset_stale)
    | Some _ -> Reset_stale
    | None -> Reset_fresh
  in
  let plans = List.map (fun s -> (s, plan s)) t.sessions in
  (* Nothing pending and everyone synced: a zero report, no traffic. *)
  if (not t.dirty) && List.for_all (fun (_, p) -> p = Skip) plans then
    { fr_serial = current; fr_notified = 0; fr_advanced = 0; fr_resets = 0;
      fr_skipped = 0; fr_coalesced = 0 }
  else begin
    (* 2. every response the plans read is encoded once, on first use: a
       delta buffer per base serial and the snapshot, both kept until the
       serial moves, and this batch's Serial Notify. *)
    let encoded bytes =
      t.encode_calls <- t.encode_calls + 1;
      t.bytes_encoded <- t.bytes_encoded + String.length bytes;
      bytes
    in
    let delta base =
      match Hashtbl.find_opt t.buffers base with
      | Some bytes -> bytes
      | None ->
        let aw = match changes base with Some aw -> aw | None -> assert false in
        let bytes = encoded (Session.response cache aw) in
        Hashtbl.replace t.buffers base bytes;
        bytes
    in
    let snapshot () =
      match t.snapshot with
      | Some bytes -> bytes
      | None ->
        let bytes = encoded (Session.response cache (Session.cache_vrps cache, [])) in
        t.snapshot <- Some bytes;
        bytes
    in
    let n = List.length t.sessions in
    let notifying = t.dirty && n > 0 in
    let notify_len =
      if notifying then String.length (encoded (Pdu.encode (Session.notify cache))) else 0
    in
    (* 3. every distinct (state, response) transition, once, before any
       session is touched.  A transition is a pure function of the state
       and the bytes, so the physical identity of both is key enough:
       every session holding that state value and receiving that buffer
       gets the one result.  The table lives for this flush only and keeps
       no state or buffer alive.  Each result is checked as the fan-out
       checked each session's: a delta or a snapshot must leave the router
       synced, the Cache Reset must be taken, and anything else is a
       server bug. *)
    let memo = Transitions.create 8 in
    let step state bytes expect =
      match Transitions.find_opt memo (state, bytes) with
      | Some next -> next
      | None ->
        t.transitions <- t.transitions + 1;
        let next =
          match (Session.transition state bytes, expect) with
          | Ok (next, `Synced), `Synced | Ok (next, `Reset_required), `Reset_required -> next
          | Ok (_, `Reset_required), `Synced -> failwith "Rtr.Server: unexpected Cache Reset"
          | Ok (_, `Synced), `Reset_required -> failwith "Rtr.Server: Cache Reset not taken"
          | Error (_, msg), _ -> raise (Session.Protocol_error msg)
        in
        Transitions.replace memo (state, bytes) next;
        next
    in
    let next_state s plan =
      let state = Session.router_state s.router in
      match plan with
      | Skip -> state
      | Delta base -> step state (delta base) `Synced
      | Reset_stale ->
        (* the router acts on the shared Cache Reset, then starts over *)
        ignore (step state t.reset_bytes `Reset_required);
        step Session.fresh (snapshot ()) `Synced
      | Reset_fresh -> step Session.fresh (snapshot ()) `Synced
    in
    let moves = List.map (fun (s, plan) -> (s, plan, next_state s plan)) plans in
    (* 4. the fan-out: account each session's exchange and install its new
       state.  Every Serial Query has one length, and so does every Reset
       Query: each is encoded once. *)
    let serial_query =
      String.length (Pdu.encode (Pdu.Serial_query { session_id = sid; serial = 0 }))
    in
    let reset_query = String.length (Pdu.encode Pdu.Reset_query) in
    let exchange ~query ~response =
      t.bytes_received <- t.bytes_received + query;
      t.bytes_sent <- t.bytes_sent + String.length response;
      t.replays <- t.replays + 1
    in
    let advanced = ref 0 and reset_count = ref 0 and skipped = ref 0 in
    List.iter
      (fun ((s : session), plan, next) ->
        (match plan with
        | Skip -> incr skipped
        | Delta base ->
          exchange ~query:serial_query ~response:(delta base);
          incr advanced
        | Reset_stale | Reset_fresh ->
          (* a stale session asks from where it was and is answered with
             the shared Cache Reset before its Reset Query *)
          if plan = Reset_stale then begin
            exchange ~query:serial_query ~response:t.reset_bytes;
            s.resets <- s.resets + 1;
            t.resets <- t.resets + 1
          end;
          exchange ~query:reset_query ~response:(snapshot ());
          incr reset_count);
        Session.set_router_state s.router next)
      moves;
    if notifying then begin
      t.bytes_sent <- t.bytes_sent + (notify_len * n);
      t.notify_batches <- t.notify_batches + 1
    end;
    let fr_coalesced = max 0 (t.bumps_pending - 1) in
    t.bumps_pending <- 0;
    t.dirty <- false;
    t.reset_all <- false;
    { fr_serial = current; fr_notified = (if notifying then n else 0);
      fr_advanced = !advanced; fr_resets = !reset_count; fr_skipped = !skipped;
      fr_coalesced }
  end

let all_synced t = List.for_all (session_synced t) t.sessions
