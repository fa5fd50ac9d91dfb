(* The fault-mix engine and the unsafe-VRP analysis.

   Pinned properties:
   - the weighted sampler converges to the checked-in corpus frequencies
     under a fixed seed;
   - authority-side fault injections surface as the matching typed issue
     kinds at the relying party;
   - on a fully valid universe the unsafe analysis finds nothing, and warn
     leaves the effective VRP set untouched;
   - under random fault soups, reject's VRP set is exactly accept's minus
     the unsafe set (so always a subset), and warn's equals accept's;
   - a rate-0 engine run of the closed loop is trace-identical to a run
     with no engine at all. *)

open Rpki_core
open Rpki_repo

let model_with_cover () =
  let m = Model.build () in
  ignore (Model.add_fig5_right_roa m ~now:0);
  m

let targets (m : Model.t) =
  [ m.Model.arin; m.Model.sprint; m.Model.etb; m.Model.continental ]

let no_stale unsafe =
  { Relying_party.default_policy with Relying_party.use_stale = false; unsafe }

let vrp_subset a b =
  List.for_all (fun v -> List.exists (fun w -> Vrp.compare v w = 0) b) a

(* --- the sampler tracks the corpus ---------------------------------- *)

let test_sampler_converges () =
  let n = 20_000 in
  let rng = Rpki_util.Rng.create 1234 in
  let counts = Hashtbl.create 16 in
  for _ = 1 to n do
    let c = Fault_corpus.sample rng in
    Hashtbl.replace counts c (1 + Option.value (Hashtbl.find_opt counts c) ~default:0)
  done;
  List.iter
    (fun (c, _) ->
      let seen = Option.value (Hashtbl.find_opt counts c) ~default:0 in
      let freq = float_of_int seen /. float_of_int n in
      let expected = Fault_corpus.expected_frequency c in
      if Float.abs (freq -. expected) > 0.02 then
        Alcotest.failf "%s: sampled %.4f, corpus %.4f" (Fault_corpus.to_string c)
          freq expected)
    Fault_corpus.weights

let test_corpus_table () =
  Alcotest.(check int) "total weight" 126 Fault_corpus.total_weight;
  Alcotest.(check int)
    "expired CRL weight"
    47
    (List.assoc Fault_corpus.Expired_crl Fault_corpus.weights)

(* --- authority faults surface as typed issues ------------------------ *)

let issue_kinds (r : Relying_party.sync_result) =
  List.map (fun (i : Relying_party.issue) -> i.Relying_party.kind) r.Relying_party.issues

let sync_fresh ?(unsafe = Relying_party.Unsafe_accept) m ~now =
  let rp = Model.relying_party ~name:(Printf.sprintf "rp-t%d" now) m in
  Relying_party.sync rp ~now ~universe:m.Model.universe ~policy:(no_stale unsafe) ()

let test_expired_crl_issue () =
  let m = model_with_cover () in
  Authority.expire_crl m.Model.continental ~now:1;
  let r = sync_fresh m ~now:2 in
  if not (List.mem Validation.Ik_expired_crl (issue_kinds r)) then
    Alcotest.fail "expired CRL not classified as expired-crl"

let test_withheld_manifest_issue () =
  let m = model_with_cover () in
  Authority.withhold_manifest m.Model.continental;
  let r = sync_fresh m ~now:2 in
  if not (List.mem Validation.Ik_missing_manifest (issue_kinds r)) then
    Alcotest.fail "withheld manifest not classified as missing-manifest"

let test_seqnum_gap_issue () =
  let m = model_with_cover () in
  let rp = Model.relying_party ~name:"gap-rp" m in
  let policy = no_stale Relying_party.Unsafe_accept in
  ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~policy ());
  Authority.skip_manifest_numbers m.Model.continental
    ~gap:(Relying_party.seqnum_gap_threshold + 50) ~now:2;
  let r = Relying_party.sync rp ~now:2 ~universe:m.Model.universe ~policy () in
  if
    not
      (List.exists
         (fun (i : Relying_party.issue) -> i.Relying_party.kind = Validation.Ik_seqnum_gap)
         r.Relying_party.issues)
  then Alcotest.fail "manifest-number leap not classified as seqnum-gap"

let test_manifest_regression_issue () =
  let m = model_with_cover () in
  let rp = Model.relying_party ~name:"reg-rp" m in
  let policy = no_stale Relying_party.Unsafe_accept in
  ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~policy ());
  Authority.regress_manifest_number m.Model.continental ~by:1 ~now:2;
  let r = Relying_party.sync rp ~now:2 ~universe:m.Model.universe ~policy () in
  if not (List.mem Validation.Ik_manifest_regression (issue_kinds r)) then
    Alcotest.fail "manifest-number rewind not classified as manifest-regression"

let test_overclaim_issue () =
  let m = model_with_cover () in
  ignore
    (Authority.overclaim_roa m.Model.continental ~asid:64511
       ~prefix:(Rpki_ip.V4.p "203.0.113.0/24") ~now:1);
  let r = sync_fresh m ~now:2 in
  if not (List.mem Validation.Ik_rfc3779_overclaim (issue_kinds r)) then
    Alcotest.fail "overclaim not classified as rfc3779-overclaim"

let test_issue_counts_ordering () =
  let counts =
    Relying_party.issue_counts
      [ { Relying_party.uri = "a"; filename = None; kind = Validation.Ik_expired_crl;
          reason = "x" };
        { Relying_party.uri = "b"; filename = None; kind = Validation.Ik_expired_crl;
          reason = "y" };
        { Relying_party.uri = "c"; filename = None; kind = Validation.Ik_seqnum_gap;
          reason = "z" } ]
  in
  match counts with
  | (Validation.Ik_expired_crl, 2) :: (Validation.Ik_seqnum_gap, 1) :: [] -> ()
  | _ -> Alcotest.fail "issue_counts not sorted most-frequent-first"

(* --- the unsafe analysis --------------------------------------------- *)

let test_no_unsafe_on_valid_universe () =
  let m = model_with_cover () in
  let accept = sync_fresh ~unsafe:Relying_party.Unsafe_accept m ~now:1 in
  let warn = sync_fresh ~unsafe:Relying_party.Unsafe_warn m ~now:1 in
  let reject = sync_fresh ~unsafe:Relying_party.Unsafe_reject m ~now:1 in
  Alcotest.(check int) "no unsafe VRPs under warn" 0
    (List.length warn.Relying_party.unsafe_vrps);
  Alcotest.(check bool) "failed set empty" true
    (Resources.is_empty warn.Relying_party.failed_resources);
  Alcotest.(check bool) "warn set = accept set" true
    (warn.Relying_party.vrps = accept.Relying_party.vrps);
  Alcotest.(check bool) "reject set = accept set" true
    (reject.Relying_party.vrps = accept.Relying_party.vrps)

let test_unreachable_sub_ca_is_unsafe () =
  let m = model_with_cover () in
  let transport = Transport.create () in
  Transport.set_fault transport
    ~uri:(Pub_point.uri (Authority.pub m.Model.continental))
    Transport.Unreachable;
  let sync name unsafe =
    let rp = Model.relying_party ~name m in
    Relying_party.sync rp ~now:1 ~universe:m.Model.universe ~transport
      ~policy:(no_stale unsafe) ()
  in
  let warn = sync "warn-rp" Relying_party.Unsafe_warn in
  let reject = sync "reject-rp" Relying_party.Unsafe_reject in
  if warn.Relying_party.unsafe_vrps = [] then
    Alcotest.fail "covering VRP not flagged unsafe under warn";
  Alcotest.(check bool) "failed set nonempty" false
    (Resources.is_empty warn.Relying_party.failed_resources);
  (* the unsafe VRPs warn reports are exactly what reject removes *)
  List.iter
    (fun u ->
      if List.exists (fun v -> Vrp.compare u v = 0) reject.Relying_party.vrps then
        Alcotest.failf "unsafe VRP %s survived reject" (Vrp.to_string u))
    reject.Relying_party.unsafe_vrps;
  if not (vrp_subset reject.Relying_party.vrps warn.Relying_party.vrps) then
    Alcotest.fail "reject's VRP set is not a subset of warn's"

(* Under random fault soups: warn = accept, reject = accept minus its
   unsafe set.  One-shot syncs on the faulted universe, so the comparison
   is free of closed-loop feedback. *)
let policies_agree seed =
  let m = model_with_cover () in
  let transport = Transport.create () in
  let engine = Fault_mix.create ~seed ~rate:0.5 ~repair_after:2 () in
  for now = 1 to 3 do
    ignore (Fault_mix.tick engine ~targets:(targets m) ~transports:[ transport ] ~now)
  done;
  let sync name unsafe =
    let rp = Model.relying_party ~name m in
    Relying_party.sync rp ~now:4 ~universe:m.Model.universe ~transport
      ~policy:(no_stale unsafe) ()
  in
  let accept = sync (Printf.sprintf "a%d" seed) Relying_party.Unsafe_accept in
  let warn = sync (Printf.sprintf "w%d" seed) Relying_party.Unsafe_warn in
  let reject = sync (Printf.sprintf "r%d" seed) Relying_party.Unsafe_reject in
  warn.Relying_party.vrps = accept.Relying_party.vrps
  && vrp_subset reject.Relying_party.vrps accept.Relying_party.vrps
  && List.for_all
       (fun (v : Vrp.t) ->
         List.exists (fun w -> Vrp.compare v w = 0) reject.Relying_party.vrps
         = not
             (List.exists
                (fun u -> Vrp.compare v u = 0)
                reject.Relying_party.unsafe_vrps))
       accept.Relying_party.vrps

(* --- rate 0 is the engine-less run ----------------------------------- *)

let trace records =
  String.concat ";"
    (List.map
       (fun (r : Rpki_sim.Loop.tick_record) ->
         Printf.sprintf "%d:%d:%d:%d:%d:%d" r.Rpki_sim.Loop.time
           r.Rpki_sim.Loop.vrp_count r.Rpki_sim.Loop.issue_count
           r.Rpki_sim.Loop.rtr_serial r.Rpki_sim.Loop.sync_elapsed
           r.Rpki_sim.Loop.unsafe_count)
       records)

let test_rate0_identical () =
  let ticks = 6 in
  let module Scenario = Rpki_sim.Scenario in
  let rig =
    Scenario.build
      { Scenario.section6 with
        fault_mix = Some { Scenario.seed = 0x5eed; rate = 0.; repair_after = None } }
  in
  let with_engine = List.init ticks (fun i -> snd (Scenario.step rig ~now:(i + 1))) in
  let sim = (Scenario.build Scenario.section6).Scenario.sim in
  let without_engine = List.init ticks (fun i -> Rpki_sim.Loop.step sim ~now:(i + 1)) in
  Alcotest.(check string) "rate-0 trace equals engine-less trace"
    (trace without_engine) (trace with_engine)

(* --- engine bookkeeping ---------------------------------------------- *)

let test_engine_repairs () =
  let m = model_with_cover () in
  let transport = Transport.create () in
  let engine = Fault_mix.create ~seed:3 ~rate:1.0 ~repair_after:1 () in
  let injected_t1 =
    Fault_mix.tick engine ~targets:(targets m) ~transports:[ transport ] ~now:1
  in
  Alcotest.(check bool) "rate-1 engine injects" true (injected_t1 <> []);
  (* every tick-1 fault is due at tick 2 *)
  ignore (Fault_mix.tick engine ~targets:[] ~transports:[ transport ] ~now:2);
  Alcotest.(check int) "all tick-1 faults repaired"
    (List.length injected_t1) (Fault_mix.repaired engine);
  Alcotest.(check (list (pair string int))) "no active faults left" []
    (List.map
       (fun (a : Fault_mix.active) -> (a.Fault_mix.af_authority, 0))
       (Fault_mix.active engine))

let test_rate_validation () =
  Alcotest.check_raises "rate above 1 rejected"
    (Invalid_argument "Fault_mix.create: rate outside [0,1]") (fun () ->
      ignore (Fault_mix.create ~seed:1 ~rate:1.5 ()))

let prop count name p =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
       p)

let () =
  Alcotest.run "fault-mix"
    [ ( "corpus",
        [ Alcotest.test_case "sampler converges to corpus frequencies" `Quick
            test_sampler_converges;
          Alcotest.test_case "weight table matches the corpus" `Quick test_corpus_table ] );
      ( "typed issues",
        [ Alcotest.test_case "expired CRL" `Quick test_expired_crl_issue;
          Alcotest.test_case "withheld manifest" `Quick test_withheld_manifest_issue;
          Alcotest.test_case "seqnum gap" `Quick test_seqnum_gap_issue;
          Alcotest.test_case "manifest regression" `Quick test_manifest_regression_issue;
          Alcotest.test_case "RFC 3779 overclaim" `Quick test_overclaim_issue;
          Alcotest.test_case "issue_counts ordering" `Quick test_issue_counts_ordering ] );
      ( "unsafe VRPs",
        [ Alcotest.test_case "fully valid universe has none" `Quick
            test_no_unsafe_on_valid_universe;
          Alcotest.test_case "unreachable sub-CA flags the covering ROA" `Quick
            test_unreachable_sub_ca_is_unsafe;
          prop 6 "warn = accept, reject = accept minus unsafe" policies_agree ] );
      ( "engine",
        [ Alcotest.test_case "rate 0 is trace-identical to no engine" `Quick
            test_rate0_identical;
          Alcotest.test_case "faults age out and are repaired" `Quick test_engine_repairs;
          Alcotest.test_case "rate is validated" `Quick test_rate_validation ] ) ]
