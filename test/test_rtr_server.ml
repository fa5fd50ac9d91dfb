(* Tests for the multiplexed RTR serving plane (Rpki_rtr.Server).

   The load-bearing property: a server fanning one cache out to N sessions
   is observationally identical to N independent caches each fed the same
   publish sequence and each serving one router — same final VRP sets, same
   serials, same Cache Reset decisions when serials fall off the delta
   window, holds visible identically.  The server is an optimisation
   (encode-once buffers, batched notify, Domains) and must not be a
   semantic change. *)

open Rpki_core
open Rpki_rtr
open Rpki_ip

let vrp_list = Alcotest.testable
    (fun fmt l -> Format.pp_print_string fmt (String.concat " " (List.map Vrp.to_string l)))
    (List.equal Vrp.equal)

(* --- the reference model: one private cache + router per session --- *)

(* Drive one router against its private cache exactly the way
   [Server.flush] drives a session: serial query while the session holds,
   Cache Reset -> Reset Query when the window closed.  Returns how many
   Cache Resets the router took (0 or 1). *)
let ref_sync cache router =
  match Session.router_session router with
  | Some sid when sid = Session.cache_session_id cache -> (
    let q =
      Pdu.encode
        (Pdu.Serial_query { session_id = sid; serial = Session.router_serial router })
    in
    match Session.apply_response router (Session.serve cache q) with
    | `Synced -> 0
    | `Reset_required -> (
      Session.reset_router router;
      match
        Session.apply_response router (Session.serve cache (Pdu.encode Pdu.Reset_query))
      with
      | `Synced -> 1
      | `Reset_required -> Alcotest.fail "reference: reset loop"))
  | _ -> (
    Session.reset_router router;
    match
      Session.apply_response router (Session.serve cache (Pdu.encode Pdu.Reset_query))
    with
    | `Synced -> 0
    | `Reset_required -> Alcotest.fail "reference: reset on fresh sync")

(* --- scenario generator --- *)

let pool =
  [| V4.p "10.0.0.0/8"; V4.p "10.1.0.0/16"; V4.p "192.0.2.0/24"; V4.p "198.51.100.0/24" |]

type op =
  | Publish of Vrp.t list
  | Hold of int * Vrp.t list (* pool index, pinned set *)
  | Release of int
  | Attach
  | Detach of int (* index into the live sessions, newest first *)
  | Restore of int * Vrp.t list (* serial step from the current serial, set *)
  | Flush

let vrp_gen =
  QCheck.Gen.(
    map2
      (fun i asn -> Vrp.make pool.(i mod Array.length pool) (1 + (abs asn mod 40)))
      (int_bound (Array.length pool - 1))
      int)

let op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun l -> Publish l) (list_size (int_bound 8) vrp_gen));
        (1, map2 (fun i l -> Hold (i, l)) (int_bound (Array.length pool - 1))
             (list_size (int_bound 3) vrp_gen));
        (1, map (fun i -> Release i) (int_bound (Array.length pool - 1)));
        (2, return Attach);
        (1, map (fun i -> Detach i) nat);
        (* a step of 0 restores the current serial, mostly with another set *)
        ( 1,
          map2 (fun step l -> Restore (step, l))
            (frequency [ (1, return 0); (1, int_range (-2) 3) ])
            (list_size (int_bound 6) vrp_gen) );
        (4, return Flush) ])

let print_op = function
  | Publish l -> Printf.sprintf "publish[%d]" (List.length l)
  | Hold (i, l) -> Printf.sprintf "hold[%d,%d]" i (List.length l)
  | Release i -> Printf.sprintf "release[%d]" i
  | Attach -> "attach"
  | Detach i -> Printf.sprintf "detach[%d]" i
  | Restore (step, l) -> Printf.sprintf "restore[%+d,%d]" step (List.length l)
  | Flush -> "flush"

let scenario_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 10 40) op_gen)

(* Replay [ops] into a server and into the reference model; compare every
   session to its private router after the final flush.  A small history
   limit makes stale sessions fall off the delta window, so the Cache Reset
   path is exercised, not just the happy delta path.

   A restore that moves the cache's serial or set gives every router with a
   session one Cache Reset at its next sync (the rule [Server.restore]
   documents): the reference acts on the Cache Reset bytes, then syncs
   afresh. *)
let check_observational_identity ?(domains = 1) ops =
  let n_max = 6 and history_limit = 4 in
  let server = Server.create ~history_limit () in
  let refs =
    Array.init n_max (fun _ ->
        (Session.create_cache ~history_limit (), Session.create_router (), ref 0))
  in
  let stale = Array.make n_max false in (* owes a Cache Reset since a restore *)
  let sessions = ref [] in (* (server session, reference index), newest first *)
  let attached = ref 0 in
  let sync_all () =
    ignore (Server.flush ~domains server);
    List.iter
      (fun (_, i) ->
        let c, r, resets = refs.(i) in
        if stale.(i) then begin
          stale.(i) <- false;
          (match Session.apply_response r (Pdu.encode Pdu.Cache_reset) with
          | `Reset_required -> incr resets
          | `Synced -> Alcotest.fail "reference: Cache Reset not taken");
          Session.reset_router r
        end;
        resets := !resets + ref_sync c r)
      !sessions
  in
  List.iter
    (fun op ->
      match op with
      | Publish l ->
        Server.publish server l;
        Array.iter (fun (c, _, _) -> Session.publish c l) refs
      | Hold (i, l) ->
        Server.hold server ~prefix:pool.(i) ~vrps:l;
        Array.iter (fun (c, _, _) -> Session.hold c ~prefix:pool.(i) ~vrps:l) refs
      | Release i ->
        Server.release server ~prefix:pool.(i);
        Array.iter (fun (c, _, _) -> Session.release c ~prefix:pool.(i)) refs
      | Attach ->
        if !attached < n_max then begin
          sessions := (Server.attach server, !attached) :: !sessions;
          incr attached
        end
      | Detach k -> (
        match !sessions with
        | [] -> ()
        | live ->
          let s, _ = List.nth live (k mod List.length live) in
          Server.detach server s;
          sessions := List.filter (fun (x, _) -> x != s) live)
      | Restore (step, l) ->
        let c0, _, _ = refs.(0) in
        let serial = Session.cache_serial c0 + step in
        let before = (Session.cache_serial c0, Session.cache_vrps c0) in
        Server.restore server ~serial ~vrps:l;
        Array.iter (fun (c, _, _) -> Session.restore c ~serial ~vrps:l) refs;
        let after = (Session.cache_serial c0, Session.cache_vrps c0) in
        if
          fst before <> fst after || not (List.equal Vrp.equal (snd before) (snd after))
        then
          List.iter
            (fun (_, i) ->
              let _, r, _ = refs.(i) in
              if Session.router_session r <> None then stale.(i) <- true)
            !sessions
      | Flush -> sync_all ())
    ops;
  sync_all ();
  if not (Server.all_synced server) then
    QCheck.Test.fail_reportf "server not all_synced after final flush";
  List.iter
    (fun (s, i) ->
      let _, r, resets = refs.(i) in
      if not (List.equal Vrp.equal (Server.session_vrps s) (Session.router_vrps r))
      then QCheck.Test.fail_reportf "session %d: VRP sets differ" i;
      if Server.session_serial s <> Session.router_serial r then
        QCheck.Test.fail_reportf "session %d: serial %d vs reference %d" i
          (Server.session_serial s) (Session.router_serial r);
      if Server.session_resets s <> !resets then
        QCheck.Test.fail_reportf "session %d: %d resets vs reference %d" i
          (Server.session_resets s) !resets;
      if not (Server.session_synced server s) then
        QCheck.Test.fail_reportf "session %d not synced" i)
    !sessions;
  (* the shared cache itself must agree with any of the private ones *)
  let c0, _, _ = refs.(0) in
  Session.cache_serial (Server.cache server) = Session.cache_serial c0
  && List.equal Vrp.equal
       (Session.cache_vrps (Server.cache server))
       (Session.cache_vrps c0)

let prop_identity ~count domains =
  let name = "multiplexed server == N independent caches" in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count
       ~name:(if domains = 1 then name else Printf.sprintf "%s (%d domains)" name domains)
       scenario_arb
       (check_observational_identity ~domains))

(* --- unit tests --- *)

let v s asn = Vrp.make (V4.p s) asn

let seeded ?(sessions = 2) () =
  let server = Server.create () in
  let ss = List.init sessions (fun _ -> Server.attach server) in
  Server.publish server [ v "10.0.0.0/8" 1 ];
  ignore (Server.flush server);
  (server, ss)

let test_notify_coalescing () =
  let server, _ = seeded () in
  let before = (Server.stats server).Server.notify_batches in
  Server.publish server [ v "10.0.0.0/8" 1; v "192.0.2.0/24" 2 ];
  Server.publish server [ v "192.0.2.0/24" 2 ];
  Server.publish server [ v "198.51.100.0/24" 3 ];
  Alcotest.(check bool) "pending" true (Server.pending server);
  let rep = Server.flush server in
  Alcotest.(check int) "one batch" (before + 1) (Server.stats server).Server.notify_batches;
  Alcotest.(check int) "two bumps coalesced" 2 rep.Server.fr_coalesced;
  Alcotest.(check int) "both sessions notified" 2 rep.Server.fr_notified;
  Alcotest.(check bool) "drained" false (Server.pending server);
  (* a flush with nothing pending is free: zero report, no traffic *)
  let sent = (Server.stats server).Server.bytes_sent in
  let rep2 = Server.flush server in
  Alcotest.(check int) "no-op notify" 0 rep2.Server.fr_notified;
  Alcotest.(check int) "no-op bytes" sent (Server.stats server).Server.bytes_sent

let test_encode_once () =
  (* the same publish schedule against 1 session and against 64 must encode
     exactly the same bytes; only delivery grows with the session count *)
  let run n =
    let server = Server.create () in
    let _ = List.init n (fun _ -> Server.attach server) in
    Server.publish server [ v "10.0.0.0/8" 1 ];
    ignore (Server.flush server);
    Server.publish server [ v "10.0.0.0/8" 1; v "192.0.2.0/24" 2 ];
    ignore (Server.flush server);
    Server.stats server
  in
  let one = run 1 and many = run 64 in
  Alcotest.(check int) "bytes encoded flat" one.Server.bytes_encoded many.Server.bytes_encoded;
  Alcotest.(check int) "encode calls flat" one.Server.encode_calls many.Server.encode_calls;
  Alcotest.(check int) "replays scale" (64 * one.Server.replays) many.Server.replays;
  Alcotest.(check bool) "delivery scales" true
    (many.Server.bytes_sent > 32 * one.Server.bytes_sent)

let test_base_mismatch () =
  let server, _ = seeded () in
  let good = Session.feed_fingerprint (Server.cache server) in
  let diff = { Vrp.added = [ v "192.0.2.0/24" 9 ]; removed = [] } in
  (match Server.publish_diff ~expect_base:(Int64.lognot good) server diff with
  | () -> Alcotest.fail "expected Base_mismatch"
  | exception Session.Base_mismatch { expected; actual } ->
    Alcotest.(check bool) "mismatch reported" true (expected <> actual));
  (* the guarded failure must not have corrupted anything *)
  Server.publish_diff ~expect_base:good server diff;
  ignore (Server.flush server);
  Alcotest.(check bool) "recovers" true (Server.all_synced server)

let test_detach () =
  let server, ss = seeded ~sessions:3 () in
  (match ss with
  | s :: _ ->
    Server.detach server s;
    Alcotest.(check int) "count drops" 2 (Server.session_count server);
    Alcotest.(check bool) "detached not synced" false (Server.session_synced server s)
  | [] -> assert false);
  Server.publish server [ v "198.51.100.0/24" 7 ];
  let rep = Server.flush server in
  Alcotest.(check int) "only live sessions notified" 2 rep.Server.fr_notified;
  Alcotest.(check bool) "rest converge" true (Server.all_synced server)

let test_restore_resets_sessions () =
  let server, ss = seeded () in
  Server.restore server ~serial:42 ~vrps:[ v "10.0.0.0/8" 5 ];
  let rep = Server.flush server in
  Alcotest.(check int) "every session reset" 2 rep.Server.fr_resets;
  List.iter
    (fun s ->
      Alcotest.(check int) "serial continues" 42 (Server.session_serial s);
      Alcotest.check vrp_list "restored set" [ v "10.0.0.0/8" 5 ] (Server.session_vrps s))
    ss

(* A restore onto the serial a session is at, with another set: the session
   must end the next flush on the restored set, or it stays stale and the
   next delta withdraws a VRP it never held. *)
let test_restore_onto_session_serial () =
  let server = Server.create () in
  let s = Server.attach server in
  Server.publish server [ v "10.0.0.0/8" 1 ];
  ignore (Server.flush server);
  Server.hold server ~prefix:(V4.p "10.0.0.0/8") ~vrps:[ v "10.0.0.0/8" 99 ];
  ignore (Server.flush server);
  Alcotest.(check int) "held at serial 2" 2 (Server.session_serial s);
  Server.restore server ~serial:2 ~vrps:[ v "10.0.0.0/8" 1 ];
  Alcotest.(check bool) "stale session is not synced" false (Server.session_synced server s);
  let rep = Server.flush server in
  Alcotest.(check int) "reset" 1 rep.Server.fr_resets;
  Alcotest.check vrp_list "restored set" [ v "10.0.0.0/8" 1 ] (Server.session_vrps s);
  Alcotest.(check bool) "synced" true (Server.all_synced server);
  Server.publish server [];
  ignore (Server.flush server);
  Alcotest.check vrp_list "next delta applies" [] (Server.session_vrps s);
  Alcotest.(check bool) "still synced" true (Server.all_synced server);
  (* the same set onto the same serial resets nobody *)
  Server.restore server ~serial:(Server.session_serial s) ~vrps:[];
  let rep = Server.flush server in
  Alcotest.(check int) "no reset" 0 rep.Server.fr_resets;
  Alcotest.(check int) "skipped" 1 rep.Server.fr_skipped

(* A serial no Serial Notify could carry is refused at the restore, which
   leaves the serial, the VRPs and every session as they were, so the next
   flush still succeeds; 2^32 - 1 still fits. *)
let test_restore_refuses_wide_serial () =
  let server, ss = seeded () in
  let cache = Server.cache server in
  let serial = Session.cache_serial cache and vrps = Session.cache_vrps cache in
  let sessions () = List.map (fun s -> (Server.session_serial s, Server.session_vrps s)) ss in
  let before = sessions () in
  (match Server.restore server ~serial:((1 lsl 32) + 5) ~vrps:[ v "10.0.0.0/8" 5 ] with
  | () -> Alcotest.fail "a serial of 2^32 + 5 was restored"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "serial kept" serial (Session.cache_serial cache);
  Alcotest.check vrp_list "VRPs kept" vrps (Session.cache_vrps cache);
  Alcotest.(check bool) "sessions kept" true
    (List.equal
       (fun (s1, l1) (s2, l2) -> s1 = s2 && List.equal Vrp.equal l1 l2)
       before (sessions ()));
  Alcotest.(check bool) "nothing pending" false (Server.pending server);
  Server.publish server [ v "198.51.100.0/24" 7 ];
  ignore (Server.flush server);
  Alcotest.(check bool) "next flush syncs" true (Server.all_synced server);
  Server.restore server ~serial:0xFFFF_FFFF ~vrps:[ v "10.0.0.0/8" 5 ];
  ignore (Server.flush server);
  List.iter
    (fun s ->
      Alcotest.(check int) "2^32 - 1 restored" 0xFFFF_FFFF (Server.session_serial s);
      Alcotest.check vrp_list "restored set" [ v "10.0.0.0/8" 5 ] (Server.session_vrps s))
    ss

(* RTR serials wrap mod 2^32 (RFC 1982): a cache restored at 2^32 - 2
   publishes 2^32 - 1, then 0, and routers at 2^32 - 1 take a delta across
   the wrap, not a Cache Reset. *)
let test_serial_wraps () =
  let server, ss = seeded () in
  Server.restore server ~serial:(0xFFFF_FFFF - 1) ~vrps:[ v "10.0.0.0/8" 1 ];
  ignore (Server.flush server);
  Server.publish server [ v "10.0.0.0/8" 1; v "192.0.2.0/24" 2 ];
  ignore (Server.flush server);
  List.iter
    (fun s -> Alcotest.(check int) "at 2^32 - 1" 0xFFFF_FFFF (Server.session_serial s))
    ss;
  Server.publish server [ v "192.0.2.0/24" 2; v "198.51.100.0/24" 3 ];
  let rep = Server.flush server in
  Alcotest.(check int) "cache wrapped to 0" 0 (Session.cache_serial (Server.cache server));
  Alcotest.(check int) "a delta, no reset" 0 rep.Server.fr_resets;
  Alcotest.(check int) "every session advanced" 2 rep.Server.fr_advanced;
  List.iter
    (fun s ->
      Alcotest.(check int) "session at 0" 0 (Server.session_serial s);
      Alcotest.check vrp_list "wrapped set"
        [ v "192.0.2.0/24" 2; v "198.51.100.0/24" 3 ]
        (Server.session_vrps s))
    ss;
  Alcotest.(check bool) "synced" true (Server.all_synced server)

let test_domains_parity () =
  (* the same schedule on 1 domain and on 4 must leave identical stats and
     identical session states — the fan-out is an implementation detail *)
  let run domains =
    let server = Server.create ~history_limit:2 () in
    let ss = List.init 32 (fun _ -> Server.attach server) in
    for i = 1 to 6 do
      Server.publish server (List.init (1 + (i mod 3)) (fun j -> v "10.0.0.0/8" (10 + i + j)));
      if i mod 2 = 0 then ignore (Server.flush ~domains server)
    done;
    Server.hold server ~prefix:(V4.p "10.0.0.0/8") ~vrps:[ v "10.0.0.0/8" 99 ];
    ignore (Server.flush ~domains server);
    (Server.stats server, List.map Server.session_vrps ss)
  in
  let st1, vrps1 = run 1 and st4, vrps4 = run 4 in
  Alcotest.(check bool) "stats identical" true (st1 = st4);
  Alcotest.(check bool) "session states identical" true
    (List.for_all2 (List.equal Vrp.equal) vrps1 vrps4)

(* --- one transition per distinct router state --- *)

let transitions server = (Server.stats server).Server.transitions

(* Flush; check that every session is on the cache's serial and set, and
   return how many transitions the flush computed. *)
let flush_counting server =
  let before = transitions server in
  ignore (Server.flush server);
  Alcotest.(check bool) "all synced" true (Server.all_synced server);
  transitions server - before

(* 40 VRPs, the first 8 re-originated at every [t] *)
let churn_set t =
  List.init 40 (fun i -> v (Printf.sprintf "10.%d.0.0/16" i) (if i < 8 then 100 + t else 7))

(* Sessions attached together hold one state value from then on, so each
   flush computes one transition per response it sends, whatever the
   session count: the snapshot, each delta, and after a restore the Cache
   Reset and then the snapshot. *)
let test_one_transition_per_state () =
  let server = Server.create () in
  let ss = List.init 512 (fun _ -> Server.attach server) in
  Server.publish server (churn_set 0);
  Alcotest.(check int) "attach: the snapshot" 1 (flush_counting server);
  for t = 1 to 5 do
    Server.publish server (churn_set t);
    Alcotest.(check int) (Printf.sprintf "churn %d: the delta" t) 1 (flush_counting server)
  done;
  Server.hold server ~prefix:(V4.p "10.0.0.0/16") ~vrps:[ v "10.0.0.0/16" 99 ];
  Alcotest.(check int) "hold: the delta" 1 (flush_counting server);
  Server.restore server ~serial:100 ~vrps:(churn_set 9);
  Alcotest.(check int) "restore: the Cache Reset, then the snapshot" 2 (flush_counting server);
  let cache = Server.cache server in
  List.iter
    (fun s ->
      Alcotest.(check int) "serial" (Session.cache_serial cache) (Server.session_serial s);
      Alcotest.check vrp_list "the cache's set" (Session.cache_vrps cache) (Server.session_vrps s))
    ss

(* Sessions that reached equal tables by different paths hold different
   state values: two attach flushes make two lineages, each computing its
   own delta, until a reset starts both over from one snapshot. *)
let test_two_lineages () =
  let server = Server.create () in
  let early = List.init 8 (fun _ -> Server.attach server) in
  Server.publish server (churn_set 0);
  Alcotest.(check int) "first attach" 1 (flush_counting server);
  (* no publish in between: the second attach flush replays the very same
     snapshot buffer, yet builds a table of its own *)
  let late = List.init 8 (fun _ -> Server.attach server) in
  Alcotest.(check int) "second attach" 1 (flush_counting server);
  for t = 1 to 3 do
    Server.publish server (churn_set t);
    Alcotest.(check int) (Printf.sprintf "churn %d: one delta per lineage" t) 2
      (flush_counting server)
  done;
  Server.restore server ~serial:50 ~vrps:(churn_set 7);
  Alcotest.(check int) "restore: a Cache Reset per lineage, one snapshot" 3
    (flush_counting server);
  Server.publish server (churn_set 8);
  Alcotest.(check int) "one lineage after the reset" 1 (flush_counting server);
  let cache = Server.cache server in
  List.iter
    (fun s ->
      Alcotest.check vrp_list "the cache's set" (Session.cache_vrps cache) (Server.session_vrps s))
    (early @ late)

let () =
  Alcotest.run "rtr-server"
    [ ( "server",
        [ Alcotest.test_case "notify coalescing" `Quick test_notify_coalescing;
          Alcotest.test_case "encode once" `Quick test_encode_once;
          Alcotest.test_case "base mismatch" `Quick test_base_mismatch;
          Alcotest.test_case "detach" `Quick test_detach;
          Alcotest.test_case "restore resets sessions" `Quick test_restore_resets_sessions;
          Alcotest.test_case "restore onto a session's serial" `Quick
            test_restore_onto_session_serial;
          Alcotest.test_case "restore refuses a serial past 32 bits" `Quick
            test_restore_refuses_wide_serial;
          Alcotest.test_case "serial wraps mod 2^32" `Quick test_serial_wraps;
          Alcotest.test_case "domains parity" `Quick test_domains_parity;
          Alcotest.test_case "one transition per router state" `Quick
            test_one_transition_per_state;
          Alcotest.test_case "two lineages until a reset" `Quick test_two_lineages ] );
      ( "property",
        [ prop_identity ~count:150 1; prop_identity ~count:40 2; prop_identity ~count:40 4 ] ) ]
