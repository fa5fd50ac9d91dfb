(* The RTR serving plane: one cache multiplexed to thousands of router
   sessions, with encode-once shared response buffers and batched
   serial-notify.

   The protocol state machines live in [Session]; this module owns the
   fan-out.  The core idea is that at any moment the response to "I am at
   serial s" is the same byte string for every session at s, so it is
   encoded once into a shared buffer keyed by s and replayed.  Publishes
   never touch a session — they invalidate the buffers and mark a notify
   pending; [flush] then sends one Serial Notify to everybody and drives
   every session back to convergence, which is how rapid republishes
   within a tick coalesce into a single fan-out.

   [flush ~domains:n] spreads the per-session decode/apply work across
   Domains.  The shared buffers are pre-encoded sequentially before the
   fan-out, each session is touched by exactly one domain, and per-domain
   accounting is reduced in domain order — so the observable behaviour
   (and every byte counter) is identical for any [domains]. *)

open Rpki_core

type session = {
  router : Session.router;
  mutable tx : int;     (* query bytes sent to the server *)
  mutable rx : int;     (* notify + response bytes received *)
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
  mutable unsafe_count : int;       (* unsafe VRPs behind the published set *)
}

let create ?history_limit () =
  { cache = Session.create_cache ?history_limit (); sessions = []; buffers = Hashtbl.create 32;
    snapshot = None; reset_bytes = Pdu.encode Pdu.Cache_reset; dirty = false;
    bumps_pending = 0; reset_all = false; serial_bumps = 0; notify_batches = 0;
    coalesced = 0; encode_calls = 0; bytes_encoded = 0; bytes_sent = 0;
    bytes_received = 0; replays = 0; resets = 0; unsafe_count = 0 }

let cache t = t.cache

let stats t =
  { serial_bumps = t.serial_bumps;
    notify_batches = t.notify_batches; coalesced = t.coalesced;
    encode_calls = t.encode_calls; bytes_encoded = t.bytes_encoded;
    bytes_sent = t.bytes_sent; bytes_received = t.bytes_received;
    replays = t.replays; resets = t.resets }

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
  let s = { router = Session.create_router (); tx = 0; rx = 0; resets = 0; live = true } in
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

(* Per-chunk accounting, reduced in domain order after the joins. *)
type acct = {
  mutable a_sent : int;
  mutable a_received : int;
  mutable a_replays : int;
  mutable a_resets : int;
  mutable a_advanced : int;
  mutable a_reset_count : int;
  mutable a_skipped : int;
}

let fresh_acct () =
  { a_sent = 0; a_received = 0; a_replays = 0; a_resets = 0; a_advanced = 0;
    a_reset_count = 0; a_skipped = 0 }

let encode_response pdus = String.concat "" (List.map Pdu.encode pdus)

let flush ?(domains = 1) t =
  let cache = t.cache in
  let current = Session.cache_serial cache in
  let sid = Session.cache_session_id cache in
  let sessions = Array.of_list (List.rev t.sessions) in
  let n = Array.length sessions in
  let notifying = t.dirty && n > 0 in
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
  let plans =
    Array.map
      (fun s ->
        match Session.router_session s.router with
        | Some rsid when rsid = sid && not t.reset_all ->
          let base = Session.router_serial s.router in
          if base = current then Skip
          else (match changes base with Some _ -> Delta base | None -> Reset_stale)
        | Some _ -> Reset_stale
        | None -> Reset_fresh)
      sessions
  in
  (* Nothing pending and everyone synced: a zero report, no traffic. *)
  if (not t.dirty) && Array.for_all (fun p -> p = Skip) plans then
    { fr_serial = current; fr_notified = 0; fr_advanced = 0; fr_resets = 0;
      fr_skipped = 0; fr_coalesced = 0 }
  else begin
    (* 2. pre-encode every buffer the fan-out will read, exactly once.  The
       fan-out below only ever reads [t.buffers] / [t.snapshot], so it can
       run on many domains against read-only shared state. *)
    let need_snapshot = ref false in
    let missing = Hashtbl.create 8 in
    Array.iter
      (fun p ->
        match p with
        | Delta base -> if not (Hashtbl.mem t.buffers base) then Hashtbl.replace missing base ()
        | Reset_stale | Reset_fresh -> need_snapshot := true
        | Skip -> ())
      plans;
    let bases = Hashtbl.fold (fun b () acc -> b :: acc) missing [] in
    let bases = Array.of_list (List.sort compare bases) in
    let encoded =
      (* distinct bases are rare (most sessions share one), but a restart
         storm can leave many: the encode pipeline itself fans out *)
      Rpki_util.Par.map ~domains
        (fun base ->
          let announced, withdrawn =
            match changes base with Some aw -> aw | None -> assert false
          in
          let body =
            (Pdu.Cache_response { session_id = sid }
             :: List.map (Pdu.of_vrp ~flags:Pdu.Announce) announced)
            @ List.map (Pdu.of_vrp ~flags:Pdu.Withdraw) withdrawn
            @ [ Pdu.End_of_data { session_id = sid; serial = current } ]
          in
          (base, encode_response body))
        bases
    in
    Array.iter
      (fun (base, bytes) ->
        Hashtbl.replace t.buffers base bytes;
        t.encode_calls <- t.encode_calls + 1;
        t.bytes_encoded <- t.bytes_encoded + String.length bytes)
      encoded;
    if !need_snapshot && t.snapshot = None then begin
      let body =
        (Pdu.Cache_response { session_id = sid }
        :: List.map Pdu.of_vrp (Session.cache_vrps cache))
        @ [ Pdu.End_of_data { session_id = sid; serial = current } ]
      in
      let bytes = encode_response body in
      t.snapshot <- Some bytes;
      t.encode_calls <- t.encode_calls + 1;
      t.bytes_encoded <- t.bytes_encoded + String.length bytes
    end;
    let notify_bytes =
      if notifying then begin
        let b = Pdu.encode (Session.notify cache) in
        t.encode_calls <- t.encode_calls + 1;
        t.bytes_encoded <- t.bytes_encoded + String.length b;
        b
      end
      else ""
    in
    let notify_len = String.length notify_bytes in
    (* 3. the fan-out: every session independently replays shared bytes into
       its own router state machine.  [`Synced] is the only acceptable
       outcome of each exchange — anything else is a server bug. *)
    let expect_synced = function
      | `Synced -> ()
      | `Reset_required -> failwith "Rtr.Server: unexpected Cache Reset"
    in
    let snapshot_of () =
      match t.snapshot with Some b -> b | None -> assert false
    in
    let serve_one acct s plan =
      if notifying then s.rx <- s.rx + notify_len;
      match plan with
      | Skip -> acct.a_skipped <- acct.a_skipped + 1
      | Delta base ->
        let query =
          Pdu.encode (Pdu.Serial_query { session_id = sid; serial = base })
        in
        s.tx <- s.tx + String.length query;
        acct.a_received <- acct.a_received + String.length query;
        let resp = Hashtbl.find t.buffers base in
        s.rx <- s.rx + String.length resp;
        acct.a_sent <- acct.a_sent + String.length resp;
        acct.a_replays <- acct.a_replays + 1;
        expect_synced (Session.apply_response s.router resp);
        acct.a_advanced <- acct.a_advanced + 1
      | Reset_stale | Reset_fresh ->
        (match plan with
        | Reset_stale ->
          (* the session asks from where it was; the server's answer is the
             shared Cache Reset, which the router acts on before starting
             over *)
          let query =
            Pdu.encode
              (Pdu.Serial_query
                 { session_id =
                     Option.value ~default:sid (Session.router_session s.router);
                   serial = Session.router_serial s.router })
          in
          s.tx <- s.tx + String.length query;
          acct.a_received <- acct.a_received + String.length query;
          s.rx <- s.rx + String.length t.reset_bytes;
          acct.a_sent <- acct.a_sent + String.length t.reset_bytes;
          acct.a_replays <- acct.a_replays + 1;
          (match Session.apply_response s.router t.reset_bytes with
          | `Reset_required -> ()
          | `Synced -> failwith "Rtr.Server: Cache Reset not taken");
          s.resets <- s.resets + 1;
          acct.a_resets <- acct.a_resets + 1
        | _ -> ());
        Session.reset_router s.router;
        let query = Pdu.encode Pdu.Reset_query in
        s.tx <- s.tx + String.length query;
        acct.a_received <- acct.a_received + String.length query;
        let resp = snapshot_of () in
        s.rx <- s.rx + String.length resp;
        acct.a_sent <- acct.a_sent + String.length resp;
        acct.a_replays <- acct.a_replays + 1;
        expect_synced (Session.apply_response s.router resp);
        acct.a_reset_count <- acct.a_reset_count + 1
    in
    (* one contiguous chunk of sessions per Domain, each with its own
       accounts; with one Domain this is a plain loop *)
    let chunks = max 1 (min domains n) in
    let size = (n + chunks - 1) / chunks in
    let accts =
      Rpki_util.Par.map ~domains
        (fun c ->
          let acct = fresh_acct () in
          for i = c * size to min n ((c + 1) * size) - 1 do
            serve_one acct sessions.(i) plans.(i)
          done;
          acct)
        (Array.init chunks Fun.id)
    in
    let advanced = ref 0 and reset_count = ref 0 and skipped = ref 0 in
    Array.iter
      (fun a ->
        t.bytes_sent <- t.bytes_sent + a.a_sent;
        t.bytes_received <- t.bytes_received + a.a_received;
        t.replays <- t.replays + a.a_replays;
        t.resets <- t.resets + a.a_resets;
        advanced := !advanced + a.a_advanced;
        reset_count := !reset_count + a.a_reset_count;
        skipped := !skipped + a.a_skipped)
      accts;
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
