(* Cache transparency (the PR's correctness bar for the shared validation
   plane): attaching a cross-vantage Valcache must be invisible to every
   observable result.  On randomly generated scenarios — monitor count,
   grace, churn, transport faults, and a split-view or rollback-free attack
   mix — the simulation is run twice from identical initial conditions,
   once with the shared cache and once without, and every tick record,
   the victim's full sync result, the gossip alarm set and the fork
   detection tick must match exactly.  The only permitted difference is
   the number of RSA verifications actually executed, which must never
   increase cache-on.

   This is the reason content addressing is safe under split view: a
   forked listing hashes differently, so the cache cannot launder the
   attacker's view into an honest vantage (or vice versa). *)

open Rpki_core
open Rpki_repo
open Rpki_sim
module Split_view = Rpki_attack.Split_view

type attack = No_attack | Stealthy | Overt

(* One deterministic scenario drawn from [seed]. *)
type knobs = {
  monitors : int;
  grace : int;
  attack : attack;
  attack_at : int;
  ticks : int;
  churn : bool;
  slow : bool;
}

let knobs_of_seed seed =
  let rng = Rpki_util.Rng.create seed in
  {
    monitors = Rpki_util.Rng.int rng 4;
    grace = Rpki_util.Rng.int rng 5;
    attack =
      (match Rpki_util.Rng.int rng 3 with
      | 0 -> No_attack
      | 1 -> Stealthy
      | _ -> Overt);
    attack_at = 2 + Rpki_util.Rng.int rng 3;
    ticks = 4 + Rpki_util.Rng.int rng 4;
    churn = Rpki_util.Rng.bool rng;
    slow = Rpki_util.Rng.bool rng;
  }

(* Everything a sync makes observable, minus the origin-validation index
   (structural, rebuilt from [vrps]) and the mutable tree-head timestamp
   field carried inside [tree_head] (compared separately as a whole). *)
let sync_view (res : Relying_party.sync_result) =
  ( res.Relying_party.vrps,
    res.Relying_party.issues,
    res.Relying_party.fetches,
    res.Relying_party.sync_elapsed,
    res.Relying_party.budget_exhausted,
    res.Relying_party.cas_validated,
    res.Relying_party.points_reused,
    res.Relying_party.points_revalidated,
    res.Relying_party.observations_appended,
    res.Relying_party.tree_head )

let run ~valcache (k : knobs) =
  let sv =
    Scenario.build
      { Scenario.default with monitors = k.monitors; grace = k.grace; valcache }
  in
  let t = sv.Scenario.sim in
  if k.slow then
    Transport.set_fault (Loop.transport t)
      ~uri:(Pub_point.uri (Authority.pub sv.Scenario.victim_ca))
      (Transport.Slow 2);
  let atk =
    lazy
      (Split_view.plan ~authority:sv.Scenario.victim_ca
         ~target_filename:sv.Scenario.victim_roa
         ~stealth:(if k.attack = Overt then Split_view.Overt else Split_view.Stealthy)
         ())
  in
  for now = 1 to k.ticks do
    if k.churn then Authority.maintain sv.Scenario.root ~now;
    if k.attack <> No_attack && now = k.attack_at then
      Split_view.apply (Lazy.force atk) (Loop.transport t);
    ignore (Loop.step t ~now)
  done;
  let trace =
    List.map
      (fun (r : Loop.tick_record) ->
        ( r.Loop.time,
          r.Loop.vrp_count,
          r.Loop.issue_count,
          r.Loop.probe_results,
          r.Loop.rtr_serial,
          List.length r.Loop.vrp_diff.Vrp.added,
          List.length r.Loop.vrp_diff.Vrp.removed,
          List.length r.Loop.regressions ))
      (Loop.history t)
  in
  let victim = (Loop.vantage t ~name:"victim-rp").Gossip.v_rp in
  let res =
    match Relying_party.last_result victim with
    | Some r -> r
    | None -> failwith "victim never synced"
  in
  let alarms =
    match Loop.gossip_mesh t with
    | None -> []
    | Some g ->
      List.sort String.compare (List.map Gossip.describe_alarm (Gossip.alarms g))
  in
  let checks =
    List.fold_left
      (fun acc (r : Loop.tick_record) -> acc + r.Loop.sig_checks)
      0 (Loop.history t)
  in
  (trace, sync_view res, alarms, Loop.first_fork_tick t, checks)

let transparency_invariant seed =
  let k = knobs_of_seed seed in
  let trace_off, sync_off, alarms_off, fork_off, checks_off = run ~valcache:false k in
  let trace_on, sync_on, alarms_on, fork_on, checks_on = run ~valcache:true k in
  if trace_on <> trace_off then
    QCheck.Test.fail_reportf "seed %d: per-tick records diverge cache-on vs. cache-off" seed;
  if sync_on <> sync_off then
    QCheck.Test.fail_reportf "seed %d: the victim's sync result diverges" seed;
  if alarms_on <> alarms_off then
    QCheck.Test.fail_reportf "seed %d: gossip alarms diverge\n  on:  %s\n  off: %s" seed
      (String.concat " | " alarms_on)
      (String.concat " | " alarms_off);
  if fork_on <> fork_off then
    QCheck.Test.fail_reportf "seed %d: fork detection tick diverges" seed;
  if checks_on > checks_off then
    QCheck.Test.fail_reportf "seed %d: the shared cache did MORE crypto (%d > %d)" seed
      checks_on checks_off;
  true

let prop_transparency =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"shared valcache is observationally transparent"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
       transparency_invariant)

(* Unit check of the verdict memo itself: a repeated (key, signature,
   message) triple is verified once and replayed after, for both verdicts. *)
let test_verdict_memo () =
  let vc = Valcache.create () in
  let kp = Rpki_crypto.Rsa.generate ~bits:512 (Rpki_util.Rng.create 42) in
  let key = kp.Rpki_crypto.Rsa.public and priv = kp.Rpki_crypto.Rsa.private_ in
  let msg = "the same message" in
  let signature = Rpki_crypto.Rsa.sign ~key:priv msg in
  let before = Rpki_crypto.Rsa.verification_count () in
  Alcotest.(check bool) "valid first" true (Valcache.verify vc ~key ~signature msg);
  Alcotest.(check bool) "valid replay" true (Valcache.verify vc ~key ~signature msg);
  Alcotest.(check bool) "invalid first" false (Valcache.verify vc ~key ~signature "other");
  Alcotest.(check bool) "invalid replay" false (Valcache.verify vc ~key ~signature "other");
  Alcotest.(check int) "two real verifications"
    2
    (Rpki_crypto.Rsa.verification_count () - before);
  let s = Valcache.stats vc in
  Alcotest.(check int) "checked" 2 s.Valcache.sig_checked;
  Alcotest.(check int) "saved" 2 s.Valcache.sig_saved

(* A replayed outcome reports what a fresh validation reports, reasons
   included.  Continental's /24 ROA is re-signed already expired at t2;
   at t3 no boundary has moved since t2, so the relying party that
   validated the point at t2 replays its outcome, as does a fresh one over
   a plane another vantage filled at t2, while a third validates afresh. *)
let test_replayed_reasons () =
  let m = Model.build () in
  Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:2;
  let sync ?valcache rp ~now =
    let r = Relying_party.sync rp ~now ~universe:m.Model.universe ?valcache () in
    List.map
      (fun (i : Relying_party.issue) ->
        Printf.sprintf "%s %s %s: %s" i.Relying_party.uri
          (Option.value i.Relying_party.filename ~default:"-")
          (Validation.issue_kind_to_string i.Relying_party.kind)
          i.Relying_party.reason)
      r.Relying_party.issues
  in
  let warm = Model.relying_party m in
  ignore (sync warm ~now:2);
  let plane = Valcache.create () in
  ignore (sync ~valcache:plane (Model.relying_party m) ~now:2);
  let fresh = sync (Model.relying_party m) ~now:3 in
  Alcotest.(check (list string)) "warm t3 = fresh t3" fresh (sync warm ~now:3);
  Alcotest.(check (list string))
    "fresh t3 over a plane filled at t2 = fresh t3" fresh
    (sync ~valcache:plane (Model.relying_party m) ~now:3);
  Alcotest.(check bool)
    "the expired ROA is reported" true
    (List.exists (String.ends_with ~suffix:"expired-cert: expired (notAfter=t+1)") fresh)

let () =
  Alcotest.run "valcache"
    [ ("transparency", [ prop_transparency ]);
      ("verdict-memo", [ Alcotest.test_case "memoizes both verdicts" `Quick test_verdict_memo ]);
      ( "replay",
        [ Alcotest.test_case "a replayed expiry reads as a fresh one" `Quick test_replayed_reasons ]
      ) ]
