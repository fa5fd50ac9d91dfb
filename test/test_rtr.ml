(* Tests for the RPKI-to-Router protocol (RFC 6810). *)

open Rpki_core
open Rpki_rtr
open Rpki_ip

let pdu = Alcotest.testable (fun fmt p -> Format.pp_print_string fmt (Pdu.to_string p)) ( = )

(* --- PDU wire format --- *)

let test_roundtrips () =
  let cases =
    [ Pdu.Serial_notify { session_id = 0x1234; serial = 42 };
      Pdu.Serial_query { session_id = 0xffff; serial = 0 };
      Pdu.Reset_query;
      Pdu.Cache_response { session_id = 7 };
      Pdu.Ipv4_prefix { flags = Pdu.Announce; prefix = V4.p "63.174.16.0/20"; max_len = 24; asn = 17054 };
      Pdu.Ipv4_prefix { flags = Pdu.Withdraw; prefix = V4.p "0.0.0.0/0"; max_len = 0; asn = 0 };
      Pdu.Ipv6_prefix { flags = Pdu.Announce; prefix6 = V6.p "2001:db8::/32"; max_len = 48; asn = 65001 };
      Pdu.End_of_data { session_id = 9; serial = 77 };
      Pdu.Cache_reset;
      Pdu.Error_report { error_code = Pdu.err_corrupt_data; message = "broken" };
      (* every field at the top of its range *)
      Pdu.Serial_notify { session_id = 0xffff; serial = 0xffff_ffff };
      Pdu.End_of_data { session_id = 0xffff; serial = 0xffff_ffff };
      Pdu.Ipv4_prefix
        { flags = Pdu.Announce; prefix = V4.p "10.0.0.1/32"; max_len = 32; asn = 0xffff_ffff };
      Pdu.Ipv6_prefix
        { flags = Pdu.Withdraw; prefix6 = V6.p "2001:db8::1/128"; max_len = 128;
          asn = 0xffff_ffff };
      Pdu.Error_report { error_code = 0xffff; message = "" } ]
  in
  List.iter (fun p -> Alcotest.check pdu (Pdu.to_string p) p (Pdu.decode (Pdu.encode p))) cases

(* The encoder refuses what the decoder refuses, and what does not fit its
   field: nothing is truncated on the way out. *)
let test_encode_refuses () =
  let v4 ?(prefix = V4.p "63.174.16.0/20") ?(max_len = 24) asn =
    Pdu.Ipv4_prefix { flags = Pdu.Announce; prefix; max_len; asn }
  in
  let v6 prefix6 max_len =
    Pdu.Ipv6_prefix { flags = Pdu.Announce; prefix6; max_len; asn = 65001 }
  in
  List.iter
    (fun (what, p) ->
      match Pdu.encode p with
      | bytes -> Alcotest.failf "%s encoded as %s" what (Pdu.to_string (Pdu.decode bytes))
      | exception Invalid_argument _ -> ())
    [ ("AS 2^32 + 17054", v4 ((1 lsl 32) + 17054));
      ("AS -1", v4 (-1));
      ("IPv6 AS 2^32", Pdu.Ipv6_prefix
                         { flags = Pdu.Announce; prefix6 = V6.p "2001:db8::/32"; max_len = 48;
                           asn = 1 lsl 32 });
      ("serial 2^32", Pdu.Serial_query { session_id = 1; serial = 1 lsl 32 });
      ("serial -1", Pdu.End_of_data { session_id = 1; serial = -1 });
      ("notify serial 2^32 + 5", Pdu.Serial_notify { session_id = 1; serial = (1 lsl 32) + 5 });
      ("session id 2^16", Pdu.Cache_response { session_id = 0x10000 });
      ("session id -1", Pdu.End_of_data { session_id = -1; serial = 0 });
      ("error code 2^16", Pdu.Error_report { error_code = 0x10000; message = "" });
      ("IPv4 max length 33", v4 ~prefix:(V4.p "10.0.0.0/8") ~max_len:33 1);
      ("IPv4 max length below the prefix length", v4 ~max_len:19 1);
      ("IPv4 max length -1", v4 ~max_len:(-1) 1);
      ("IPv6 max length 129", v6 (V6.p "2001:db8::/32") 129);
      ("IPv6 max length below the prefix length", v6 (V6.p "2001:db8::/32") 31) ]

let test_wire_layout () =
  (* byte-exact check of one IPv4 prefix PDU against RFC 6810 section 5.6 *)
  let p = Pdu.Ipv4_prefix { flags = Pdu.Announce; prefix = V4.p "10.0.0.0/8"; max_len = 24; asn = 65000 } in
  let b = Pdu.encode p in
  Alcotest.(check int) "length" 20 (String.length b);
  Alcotest.(check int) "version" 0 (Char.code b.[0]);
  Alcotest.(check int) "type" 4 (Char.code b.[1]);
  Alcotest.(check int) "declared length" 20 (Char.code b.[7]);
  Alcotest.(check int) "flags" 1 (Char.code b.[8]);
  Alcotest.(check int) "prefix len" 8 (Char.code b.[9]);
  Alcotest.(check int) "max len" 24 (Char.code b.[10]);
  Alcotest.(check int) "first prefix byte" 10 (Char.code b.[12])

let test_parse_errors () =
  let expect s =
    try
      ignore (Pdu.decode s);
      Alcotest.fail "expected parse error"
    with Pdu.Parse_error _ -> ()
  in
  expect "";
  expect "\x00\x02";
  expect "\x01\x02\x00\x00\x00\x00\x00\x08" (* wrong version *);
  expect "\x00\x63\x00\x00\x00\x00\x00\x08" (* unknown type *);
  expect (Pdu.encode Pdu.Reset_query ^ "junk");
  (* maxlen < prefix len must be rejected *)
  let bad = Bytes.of_string (Pdu.encode (Pdu.Ipv4_prefix { flags = Pdu.Announce; prefix = V4.p "10.0.0.0/24"; max_len = 24; asn = 1 })) in
  Bytes.set bad 10 '\x08';
  expect (Bytes.to_string bad)

let test_decode_all () =
  let stream = Pdu.encode Pdu.Reset_query ^ Pdu.encode Pdu.Cache_reset in
  Alcotest.(check int) "two pdus" 2 (List.length (Pdu.decode_all stream))

let expect_parse_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" what
  | exception Pdu.Parse_error _ -> ()

(* A fixed-size PDU declaring any length but its own used to be read past
   its end. *)
let test_short_fixed_size () =
  let short_query = "\x00\x01\x00\x00\x00\x00\x00\x08" in
  expect_parse_error "8-byte Serial Query" (fun () -> Pdu.decode short_query);
  expect_parse_error "8-byte Serial Notify" (fun () ->
      Pdu.decode "\x00\x00\x00\x00\x00\x00\x00\x08");
  let short_eod = "\x00\x07\x00\x00\x00\x00\x00\x08" in
  expect_parse_error "8-byte End of Data" (fun () -> Pdu.decode short_eod);
  expect_parse_error "Reset Query with a body" (fun () ->
      Pdu.decode "\x00\x02\x00\x00\x00\x00\x00\x0c\x00\x00\x00\x00");
  (* a router's malformed query must not crash the cache *)
  let cache = Session.create_cache () in
  Session.publish cache [ Vrp.make (V4.p "10.0.0.0/8") 1 ];
  (match Pdu.decode_all (Session.serve cache short_query) with
  | [ Pdu.Error_report { error_code; _ } ] ->
    Alcotest.(check int) "corrupt data" Pdu.err_corrupt_data error_code
  | _ -> Alcotest.fail "expected an Error Report");
  (* and a cache's malformed End of Data must not crash the router *)
  let router = Session.create_router () in
  expect_parse_error "response ending in a short End of Data" (fun () ->
      Session.apply_response router
        (Pdu.encode (Pdu.Cache_response { session_id = 1 }) ^ short_eod))

let test_error_report_lengths () =
  expect_parse_error "text length past the PDU" (fun () ->
      Pdu.decode "\x00\x0a\x00\x00\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\xff\xff");
  expect_parse_error "encapsulated length past the PDU" (fun () ->
      Pdu.decode "\x00\x0a\x00\x00\x00\x00\x00\x10\x00\x00\x01\x00\x00\x00\x00\x00");
  expect_parse_error "shorter than its two lengths" (fun () ->
      Pdu.decode "\x00\x0a\x00\x00\x00\x00\x00\x0c\x00\x00\x00\x00");
  expect_parse_error "text shorter than the PDU" (fun () ->
      Pdu.decode "\x00\x0a\x00\x00\x00\x00\x00\x12\x00\x00\x00\x00\x00\x00\x00\x01ab");
  (* RFC 6810 section 5.10: the text follows the encapsulated PDU *)
  let inner = Pdu.encode Pdu.Reset_query in
  let b = Buffer.create 32 in
  Buffer.add_string b "\x00\x0a\x00\x03\x00\x00\x00\x1b";
  Buffer.add_string b "\x00\x00\x00\x08";
  Buffer.add_string b inner;
  Buffer.add_string b "\x00\x00\x00\x03bad";
  Alcotest.check pdu "text after the encapsulated PDU"
    (Pdu.Error_report { error_code = 3; message = "bad" })
    (Pdu.decode (Buffer.contents b))

(* --- session state machines --- *)

let v1 = Vrp.make ~max_len:24 (V4.p "63.174.16.0/20") 17054
let v2 = Vrp.make (V4.p "63.170.0.0/16") 19429
let v3 = Vrp.make ~max_len:13 (V4.p "63.160.0.0/12") 1239

let test_initial_sync () =
  let cache = Session.create_cache () in
  Session.publish cache [ v1; v2 ];
  let router = Session.create_router () in
  let got = Session.synchronize router cache in
  Alcotest.(check int) "two vrps" 2 (List.length got);
  Alcotest.(check int) "serial" 1 (Session.router_serial router)

let test_incremental_add_remove () =
  let cache = Session.create_cache () in
  Session.publish cache [ v1; v2 ];
  let router = Session.create_router () in
  ignore (Session.synchronize router cache);
  Session.publish cache [ v2; v3 ];
  let got = Session.synchronize router cache in
  Alcotest.(check int) "two vrps" 2 (List.length got);
  Alcotest.(check bool) "v3 in" true (List.exists (Vrp.equal v3) got);
  Alcotest.(check bool) "v1 out" false (List.exists (Vrp.equal v1) got);
  Alcotest.(check int) "serial advanced" 2 (Session.router_serial router)

let test_no_change_no_serial_bump () =
  let cache = Session.create_cache () in
  Session.publish cache [ v1 ];
  Session.publish cache [ v1 ];
  Alcotest.(check int) "serial stable" 1 (Session.cache_serial cache)

let test_history_eviction_forces_reset () =
  let cache = Session.create_cache ~history_limit:4 () in
  let router = Session.create_router () in
  Session.publish cache [ v1 ];
  ignore (Session.synchronize router cache);
  (* push the router's serial out of the retained window *)
  for i = 0 to 9 do
    Session.publish cache [ Vrp.make (V4.Prefix.make ((i + 1) lsl 24) 8) (1000 + i) ]
  done;
  let got = Session.synchronize router cache in
  Alcotest.(check int) "resynced to one vrp" 1 (List.length got);
  Alcotest.(check int) "at latest serial" (Session.cache_serial cache) (Session.router_serial router)

let test_session_mismatch_resets () =
  let cache_a = Session.create_cache ~session_id:1 () in
  let cache_b = Session.create_cache ~session_id:2 () in
  Session.publish cache_a [ v1 ];
  Session.publish cache_b [ v2 ];
  let router = Session.create_router () in
  ignore (Session.synchronize router cache_a);
  (* fail over to a different cache: session ids differ, must resync fully *)
  let got = Session.synchronize router cache_b in
  Alcotest.(check int) "one vrp" 1 (List.length got);
  Alcotest.(check bool) "it's v2" true (Vrp.equal v2 (List.hd got))

let test_notify () =
  let cache = Session.create_cache ~session_id:5 () in
  Session.publish cache [ v1 ];
  match Session.notify cache with
  | Pdu.Serial_notify { session_id; serial } ->
    Alcotest.(check int) "session" 5 session_id;
    Alcotest.(check int) "serial" 1 serial
  | _ -> Alcotest.fail "expected notify"

let test_cache_serves_error_on_garbage () =
  let cache = Session.create_cache () in
  match Pdu.decode_all (Session.serve cache "nonsense") with
  | [ Pdu.Error_report _ ] -> ()
  | _ -> Alcotest.fail "expected error report"

(* property: publishing any sequence of VRP sets, a router that syncs after
   each publish always converges to the cache's current set *)
let prop_converges =
  let arb =
    QCheck.make
      ~print:(fun l -> string_of_int (List.length l))
      QCheck.Gen.(
        list_size (int_bound 8)
          (list_size (int_bound 10)
             (map2
                (fun a asn -> Vrp.make (V4.Prefix.make (abs a mod (1 lsl 32)) 24) (abs asn mod 1000))
                int int)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"router converges to cache state" arb (fun sets ->
         let cache = Session.create_cache () in
         let router = Session.create_router () in
         List.for_all
           (fun vrps ->
             Session.publish cache vrps;
             let got = Session.synchronize router cache in
             let want = List.sort_uniq Vrp.compare vrps in
             List.length got = List.length want && List.for_all2 Vrp.equal got want)
           sets))

(* --- hostile bytes --- *)

let u32_gen = QCheck.Gen.int_bound 0xffff_ffff

let pdu_gen =
  QCheck.Gen.(
    let sid = int_bound 0xffff in
    let flags = map (fun a -> if a then Pdu.Announce else Pdu.Withdraw) bool in
    frequency
      [ (1, map2 (fun session_id serial -> Pdu.Serial_notify { session_id; serial }) sid u32_gen);
        (1, map2 (fun session_id serial -> Pdu.Serial_query { session_id; serial }) sid u32_gen);
        (1, return Pdu.Reset_query);
        (1, map (fun session_id -> Pdu.Cache_response { session_id }) sid);
        ( 4,
          map3
            (fun flags (addr, len, extra) asn ->
              Pdu.Ipv4_prefix
                { flags; prefix = V4.Prefix.make addr len; max_len = min 32 (len + extra); asn })
            flags
            (triple u32_gen (int_bound 32) (int_bound 8))
            u32_gen );
        ( 1,
          map2
            (fun flags max_len ->
              Pdu.Ipv6_prefix { flags; prefix6 = V6.p "2001:db8::/32"; max_len; asn = 65001 })
            flags (int_range 32 128) );
        (1, map2 (fun session_id serial -> Pdu.End_of_data { session_id; serial }) sid u32_gen);
        (1, return Pdu.Cache_reset);
        ( 1,
          map2
            (fun error_code message -> Pdu.Error_report { error_code; message })
            (int_bound 7) (string_size (int_bound 12)) ) ])

(* Valid streams: arbitrary PDU sequences, and response-shaped ones that get
   past the first PDU of [apply_response]. *)
let stream_gen =
  QCheck.Gen.(
    map
      (fun pdus -> String.concat "" (List.map Pdu.encode pdus))
      (frequency
         [ (1, list_size (int_range 1 6) pdu_gen);
           ( 2,
             map2
               (fun body eod ->
                 (Pdu.Cache_response { session_id = 1 } :: body)
                 @ [ Pdu.End_of_data { session_id = 1; serial = eod } ])
               (list_size (int_bound 6) pdu_gen) (int_bound 9) ) ]))

let hostile_gen =
  QCheck.Gen.(
    let header ty len =
      Printf.sprintf "\x00%c\x00\x00\x00\x00\x00%c" (Char.chr ty) (Char.chr len)
    in
    frequency
      [ (1, string_size (int_bound 48));
        (* a version-0 header of any type and a length near the body's *)
        ( 2,
          map3 (fun ty len body -> header ty len ^ body) (int_bound 11) (int_bound 48)
            (string_size (int_bound 40)) );
        (3, map2 (fun s k -> String.sub s 0 (k mod (String.length s + 1))) stream_gen nat);
        ( 3,
          map2
            (fun s flips ->
              let b = Bytes.of_string s in
              List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
              Bytes.to_string b)
            stream_gen
            (list_size (int_range 1 3) (pair nat char)) ) ])

(* Whatever the bytes: decoding raises only Parse_error, the cache answers
   every request, and a router raises only Parse_error or Protocol_error. *)
let prop_hostile_bytes =
  let cache = Session.create_cache ~session_id:1 () in
  Session.publish cache [ v1; v2 ];
  Session.publish cache [ v2; v3 ];
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"hostile bytes raise only typed errors"
       (QCheck.make ~print:(Printf.sprintf "%S") hostile_gen)
       (fun s ->
         (match Pdu.decode_all s with _ -> () | exception Pdu.Parse_error _ -> ());
         ignore (Session.serve cache s);
         let synced = Session.create_router () in
         ignore (Session.synchronize synced cache);
         List.iter
           (fun router ->
             match Session.apply_response router s with
             | `Synced | `Reset_required -> ()
             | exception (Pdu.Parse_error _ | Session.Protocol_error _) -> ())
           [ Session.create_router (); synced ];
         true))

(* --- the router table against a reference model --- *)

module Vs = Set.Make (Vrp)

(* [apply_response] as a Set-based fold: each PDU in order, stopping at the
   first bad one.  Returns the outcome and the (session, serial, set) after
   it. *)
let model (session, serial, set) pdus =
  let fail session m = (Error m, (session, serial, set)) in
  match pdus with
  | Pdu.Cache_reset :: _ -> (Ok `Reset_required, (None, serial, set))
  | Pdu.Cache_response { session_id } :: rest -> (
    match session with
    | Some s when s <> session_id -> fail session "session mismatch"
    | _ ->
      let session = Some session_id in
      let rec go acc = function
        | [ Pdu.End_of_data { session_id = sid; serial } ] ->
          if Some sid <> session then fail session "session mismatch at EOD"
          else (Ok `Synced, (session, serial, acc))
        | Pdu.Ipv4_prefix { flags; prefix; max_len; asn } :: rest ->
          let v = Vrp.make ~max_len prefix asn in
          if flags = Pdu.Announce then go (Vs.add v acc) rest
          else if Vs.mem v acc then go (Vs.remove v acc) rest
          else fail session "withdrawal of unknown VRP"
        | Pdu.Ipv6_prefix _ :: rest -> go acc rest
        | [] -> fail session "missing End of Data"
        | p :: _ -> fail session ("unexpected " ^ Pdu.to_string p)
      in
      go set rest)
  | Pdu.Error_report { error_code; message } :: _ ->
    fail session (Printf.sprintf "cache error %d: %s" error_code message)
  | p :: _ -> fail session ("unexpected " ^ Pdu.to_string p)
  | [] -> fail session "empty response"

(* A small pool, so announces and withdrawals of one VRP collide. *)
let vrp_pool =
  [| v1; v2; v3; Vrp.make (V4.p "10.0.0.0/8") 1; Vrp.make (V4.p "10.0.0.0/8") 2;
     Vrp.make ~max_len:16 (V4.p "10.0.0.0/8") 1 |]

let response_gen =
  QCheck.Gen.(
    let sid = frequency [ (6, return 1); (1, return 2) ] in
    let prefix =
      frequency
        [ ( 12,
            map2
              (fun i announce ->
                Pdu.of_vrp ~flags:(if announce then Pdu.Announce else Pdu.Withdraw) vrp_pool.(i))
              (int_bound (Array.length vrp_pool - 1))
              (frequency [ (3, return true); (2, return false) ]) );
          ( 1,
            map
              (fun announce ->
                Pdu.Ipv6_prefix
                  { flags = (if announce then Pdu.Announce else Pdu.Withdraw);
                    prefix6 = V6.p "2001:db8::/32"; max_len = 48; asn = 65001 })
              bool );
          (1, oneofl [ Pdu.Reset_query; Pdu.Cache_response { session_id = 1 }; Pdu.Cache_reset ]) ]
    in
    let ending =
      frequency
        [ (10, map2 (fun session_id serial -> [ Pdu.End_of_data { session_id; serial } ]) sid
                 (int_bound 20));
          (1, return []);
          (1, return [ Pdu.End_of_data { session_id = 1; serial = 3 }; Pdu.Cache_reset ]) ]
    in
    frequency
      [ ( 12,
          map3
            (fun session_id body ending -> (Pdu.Cache_response { session_id } :: body) @ ending)
            sid (list_size (int_bound 10) prefix) ending );
        (1, return [ Pdu.Cache_reset ]);
        (1, return [ Pdu.Error_report { error_code = Pdu.err_no_data_available; message = "none" } ]);
        (1, return []) ])

let prop_router_table_model =
  let print rs =
    String.concat "\n" (List.map (fun r -> String.concat " " (List.map Pdu.to_string r)) rs)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"router table == Set-based reference"
       (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 12) response_gen))
       (fun responses ->
         let router = Session.create_router () in
         let outcome = function
           | Ok `Synced -> "synced" | Ok `Reset_required -> "reset" | Error m -> m
         in
         ignore
           (List.fold_left
              (fun state pdus ->
                let bytes = String.concat "" (List.map Pdu.encode pdus) in
                let want, ((session, serial, set) as state) = model state (Pdu.decode_all bytes) in
                let got =
                  match Session.apply_response router bytes with
                  | r -> Ok r
                  | exception Session.Protocol_error m -> Error m
                in
                if outcome got <> outcome want then
                  QCheck.Test.fail_reportf "outcome %s, model %s" (outcome got) (outcome want);
                if Session.router_session router <> session then
                  QCheck.Test.fail_reportf "session differs from the model";
                if Session.router_serial router <> serial then
                  QCheck.Test.fail_reportf "serial %d, model %d" (Session.router_serial router)
                    serial;
                if not (List.equal Vrp.equal (Session.router_vrps router) (Vs.elements set)) then
                  QCheck.Test.fail_reportf "VRPs differ from the model";
                state)
              (None, 0, Vs.empty) responses);
         true))

let () =
  Alcotest.run "rtr"
    [ ( "pdu",
        [ Alcotest.test_case "roundtrips" `Quick test_roundtrips;
          Alcotest.test_case "encoder refuses what does not fit" `Quick test_encode_refuses;
          Alcotest.test_case "wire layout" `Quick test_wire_layout;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "decode_all" `Quick test_decode_all;
          Alcotest.test_case "short fixed-size PDUs" `Quick test_short_fixed_size;
          Alcotest.test_case "error report lengths" `Quick test_error_report_lengths;
          prop_hostile_bytes ] );
      ( "session",
        [ Alcotest.test_case "initial sync" `Quick test_initial_sync;
          Alcotest.test_case "incremental" `Quick test_incremental_add_remove;
          Alcotest.test_case "idempotent publish" `Quick test_no_change_no_serial_bump;
          Alcotest.test_case "history eviction" `Quick test_history_eviction_forces_reset;
          Alcotest.test_case "session mismatch" `Quick test_session_mismatch_resets;
          Alcotest.test_case "notify" `Quick test_notify;
          Alcotest.test_case "garbage request" `Quick test_cache_serves_error_on_garbage;
          prop_converges;
          prop_router_table_model ] ) ]
