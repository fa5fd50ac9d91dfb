(* Equivalence property for the incremental sync pipeline.

   The redesigned relying party memoizes per-point validation, patches its
   origin-validation index with a VRP diff, and feeds the same diff to the
   RTR cache as a serial delta.  The invariant that makes all of that safe:
   an RP syncing incrementally across ticks must be indistinguishable from
   a fresh RP validating from scratch at the same instant — same VRP set,
   same classification verdicts, and a router tracking the incremental
   cache must end up holding exactly that set. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

type world = {
  universe : Universe.t;
  ta : Authority.t;
  children : Authority.t array;
  mutable live : (Authority.t * string) list; (* (issuer, ROA filename) *)
  mutable next_slice : int array; (* per child: next unused /20 slice *)
}

(* TA over 30.0.0.0/8; each child holds 30.c.0.0/16 and issues ROAs over
   /20 slices of it.  Deterministic in [seed]. *)
let build_world seed =
  let rng = Rpki_util.Rng.create seed in
  let universe = Universe.create () in
  let ta =
    Authority.create_trust_anchor
      ~name:(Printf.sprintf "TA%d" seed)
      ~resources:(Resources.of_v4_strings [ "30.0.0.0/8" ])
      ~uri:(Printf.sprintf "rsync://ta%d/repo" seed)
      ~addr:(V4.addr_of_string_exn "198.51.100.1") ~host_asn:1 ~now:0 ~universe ()
  in
  let n_children = 2 + Rpki_util.Rng.int rng 2 in
  let live = ref [] in
  let children =
    Array.init n_children (fun c ->
        let base = (30 lsl 24) lor (c lsl 16) in
        Authority.create_child ta
          ~name:(Printf.sprintf "C%d_%d" seed c)
          ~resources:(Resources.make ~v4:(V4.Set.of_prefix (V4.Prefix.make base 16)) ())
          ~uri:(Printf.sprintf "rsync://c%d_%d/repo" seed c)
          ~addr:(base + 1) ~host_asn:(100 + c) ~now:0 ~universe ())
  in
  let next_slice = Array.make n_children 0 in
  Array.iteri
    (fun c child ->
      let n_roas = 1 + Rpki_util.Rng.int rng 3 in
      for _ = 1 to n_roas do
        let r = next_slice.(c) mod 16 in
        next_slice.(c) <- next_slice.(c) + 1;
        let base = (30 lsl 24) lor (c lsl 16) in
        let prefix = V4.Prefix.make (base lor (r lsl 12)) 20 in
        let asid = 1000 + (c * 100) + r in
        let filename, _ = Authority.issue_simple_roa child ~asid ~prefix ~now:0 () in
        live := (child, filename) :: !live
      done)
    children;
  { universe; ta; children; live = List.rev !live; next_slice }

(* One random universe mutation at time [now].  The equivalence check does
   not care whether the mutation is legitimate maintenance or an attack —
   only that both relying parties observe the same repositories. *)
let mutate w rng ~now =
  let pick_child () =
    let c = Rpki_util.Rng.int rng (Array.length w.children) in
    (c, w.children.(c))
  in
  let pick_live () = Rpki_util.Rng.pick rng w.live in
  let drop_live (a0, f0) =
    (* Authority.t is cyclic (parent/children); compare by identity *)
    w.live <- List.filter (fun (a, f) -> not (a == a0 && f = f0)) w.live
  in
  match Rpki_util.Rng.int rng 5 with
  | 0 ->
    (* issue a fresh ROA *)
    let c, child = pick_child () in
    let r = w.next_slice.(c) mod 16 in
    w.next_slice.(c) <- w.next_slice.(c) + 1;
    let base = (30 lsl 24) lor (c lsl 16) in
    let prefix = V4.Prefix.make (base lor (r lsl 12)) 20 in
    let asid = 2000 + Rpki_util.Rng.int rng 1000 in
    let filename, _ = Authority.issue_simple_roa child ~asid ~prefix ~now () in
    w.live <- (child, filename) :: w.live
  | 1 when w.live <> [] ->
    let ((a, filename) as entry) = pick_live () in
    Authority.revoke_roa a ~filename ~now;
    drop_live entry
  | 2 when w.live <> [] ->
    let ((a, filename) as entry) = pick_live () in
    Authority.stealth_delete_roa a ~filename ~now;
    drop_live entry
  | 3 when w.live <> [] ->
    (* the paper's targeted whack, driven by the grandparent/TA *)
    let ((a, filename) as entry) = pick_live () in
    let plan =
      Rpki_attack.Whack.plan_targeted ~manipulator:w.ta
        ~target_issuer:(Authority.name a) ~target_filename:filename
    in
    ignore (Rpki_attack.Whack.execute ~manipulator:w.ta plan ~now);
    drop_live entry
  | _ ->
    (* legitimate maintenance: fresh CRL + manifest (content changes,
       meaning does not) *)
    let _, child = pick_child () in
    Authority.refresh child ~now

let vrp_strings vrps = List.map Vrp.to_string (Vrp.normalize vrps)

let random_routes rng n =
  List.init n (fun _ ->
      let addr =
        if Rpki_util.Rng.bool rng then (30 lsl 24) lor Rpki_util.Rng.bits rng 24
        else Rpki_util.Rng.bits rng 32
      in
      Route.make (V4.Prefix.make addr (12 + Rpki_util.Rng.int rng 13))
        (if Rpki_util.Rng.bool rng then 1000 + Rpki_util.Rng.int rng 500
         else 2000 + Rpki_util.Rng.int rng 1000))

(* The property: run one RP incrementally across ticks, mutating the
   universe between ticks; at every tick a from-scratch RP must agree. *)
let incremental_equiv seed =
  let w = build_world seed in
  let rng = Rpki_util.Rng.create (seed * 31) in
  let tals = [ Relying_party.tal_of_authority w.ta ] in
  let rp = Relying_party.create ~name:"inc" ~asn:1 ~tals () in
  let cache = Rpki_rtr.Session.create_cache () in
  let router = Rpki_rtr.Session.create_router () in
  let prev = ref [] in
  let ticks = 4 in
  for now = 1 to ticks do
    if now > 1 then
      for _ = 1 to 1 + Rpki_util.Rng.int rng 2 do
        mutate w rng ~now
      done;
    let inc = Relying_party.sync rp ~now ~universe:w.universe () in
    let scratch_rp = Relying_party.create ~name:"scratch" ~asn:1 ~tals () in
    let scratch = Relying_party.sync scratch_rp ~now ~universe:w.universe () in
    (* same VRP set *)
    if vrp_strings inc.Relying_party.vrps <> vrp_strings scratch.Relying_party.vrps then
      QCheck.Test.fail_reportf "seed %d tick %d: VRP sets diverge\n  inc:     %s\n  scratch: %s"
        seed now
        (String.concat " " (vrp_strings inc.Relying_party.vrps))
        (String.concat " " (vrp_strings scratch.Relying_party.vrps));
    (* the reported diff really is the step from the previous set *)
    if
      vrp_strings (Vrp.apply_diff !prev inc.Relying_party.diff)
      <> vrp_strings inc.Relying_party.vrps
    then QCheck.Test.fail_reportf "seed %d tick %d: diff does not replay the step" seed now;
    prev := Vrp.normalize inc.Relying_party.vrps;
    (* same classification verdicts from the patched index *)
    List.iter
      (fun route ->
        let a = Origin_validation.classify inc.Relying_party.index route in
        let b = Origin_validation.classify scratch.Relying_party.index route in
        if a <> b then
          QCheck.Test.fail_reportf "seed %d tick %d: %s classifies %s (inc) vs %s (scratch)"
            seed now (Route.to_string route)
            (Origin_validation.state_to_string a)
            (Origin_validation.state_to_string b))
      (random_routes rng 32);
    (* the RTR cache fed only serial deltas tracks the same set, and a
       router following it converges to it *)
    Rpki_rtr.Session.publish_diff cache inc.Relying_party.diff;
    let got = Rpki_rtr.Session.synchronize router cache in
    if vrp_strings got <> vrp_strings inc.Relying_party.vrps then
      QCheck.Test.fail_reportf "seed %d tick %d: router diverged from RP" seed now;
    if Rpki_rtr.Session.router_serial router <> Rpki_rtr.Session.cache_serial cache then
      QCheck.Test.fail_reportf "seed %d tick %d: router serial lags cache" seed now
  done;
  true

let prop_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"incremental sync == from-scratch sync"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
       incremental_equiv)

(* The transport refactor must be invisible when the network is perfect: an
   RP syncing through an explicit zero-latency fault-free transport under
   the default fetch policy is bit-for-bit the PR-1 RP — same VRPs, same
   verdicts, same router convergence — and its transport accounting is
   inert (every point live, first attempt, zero time, zero staleness). *)
let transport_equiv seed =
  let w = build_world seed in
  let rng = Rpki_util.Rng.create (seed * 17) in
  let tals = [ Relying_party.tal_of_authority w.ta ] in
  let rp = Relying_party.create ~name:"inc-tr" ~asn:1 ~tals () in
  let transport = Transport.instant () in
  let cache = Rpki_rtr.Session.create_cache () in
  let router = Rpki_rtr.Session.create_router () in
  let ticks = 4 in
  for now = 1 to ticks do
    if now > 1 then
      for _ = 1 to 1 + Rpki_util.Rng.int rng 2 do
        mutate w rng ~now
      done;
    let inc =
      Relying_party.sync rp ~now ~universe:w.universe ~transport
        ~policy:Relying_party.default_policy ()
    in
    (* the reference runs the compatibility path: no transport given *)
    let scratch_rp = Relying_party.create ~name:"scratch" ~asn:1 ~tals () in
    let scratch = Relying_party.sync scratch_rp ~now ~universe:w.universe () in
    if vrp_strings inc.Relying_party.vrps <> vrp_strings scratch.Relying_party.vrps then
      QCheck.Test.fail_reportf
        "seed %d tick %d: transported RP diverges from scratch\n  inc:     %s\n  scratch: %s"
        seed now
        (String.concat " " (vrp_strings inc.Relying_party.vrps))
        (String.concat " " (vrp_strings scratch.Relying_party.vrps));
    if inc.Relying_party.sync_elapsed <> 0 then
      QCheck.Test.fail_reportf "seed %d tick %d: instant transport spent %d ticks" seed now
        inc.Relying_party.sync_elapsed;
    if inc.Relying_party.budget_exhausted then
      QCheck.Test.fail_reportf "seed %d tick %d: budget exhausted on instant transport" seed now;
    if Relying_party.max_data_age inc <> 0 then
      QCheck.Test.fail_reportf "seed %d tick %d: staleness on fault-free transport" seed now;
    List.iter
      (fun (tr : Relying_party.transfer) ->
        if
          tr.Relying_party.t_status <> Relying_party.Fetched
          || tr.Relying_party.t_channel <> "live"
          || tr.Relying_party.t_attempts <> 1
        then
          QCheck.Test.fail_reportf "seed %d tick %d: %s not a clean live fetch" seed now
            tr.Relying_party.t_uri)
      inc.Relying_party.transfers;
    List.iter
      (fun route ->
        if
          Origin_validation.classify inc.Relying_party.index route
          <> Origin_validation.classify scratch.Relying_party.index route
        then
          QCheck.Test.fail_reportf "seed %d tick %d: verdicts diverge on %s" seed now
            (Route.to_string route))
      (random_routes rng 32);
    Rpki_rtr.Session.publish_diff cache inc.Relying_party.diff;
    let got = Rpki_rtr.Session.synchronize router cache in
    if vrp_strings got <> vrp_strings inc.Relying_party.vrps then
      QCheck.Test.fail_reportf "seed %d tick %d: router diverged from transported RP" seed now;
    if Rpki_rtr.Session.router_serial router <> Rpki_rtr.Session.cache_serial cache then
      QCheck.Test.fail_reportf "seed %d tick %d: router serial lags cache" seed now
  done;
  true

let prop_transport_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"zero-latency fault-free transport == PR-1 sync"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
       transport_equiv)

(* The 10k-VRP case: few CAs, each with multi-entry ROAs, so the VRP
   population is realistic while RSA key generation stays cheap.  After a
   warm tick touching 2 of 5 points, the untouched points must be replayed
   from the memo and the result must still match a from-scratch sync. *)
let test_equivalence_10k () =
  let universe = Universe.create () in
  let ta =
    Authority.create_trust_anchor ~name:"TA"
      ~resources:(Resources.of_v4_strings [ "30.0.0.0/8" ])
      ~uri:"rsync://ta/repo" ~addr:(V4.addr_of_string_exn "198.51.100.1")
      ~host_asn:1 ~now:0 ~universe ()
  in
  let n_children = 4 and roas_per_child = 5 and entries_per_roa = 500 in
  let children =
    Array.init n_children (fun c ->
        let base = (30 lsl 24) lor (c lsl 22) in
        Authority.create_child ta ~name:(Printf.sprintf "C%d" c)
          ~resources:(Resources.make ~v4:(V4.Set.of_prefix (V4.Prefix.make base 10)) ())
          ~uri:(Printf.sprintf "rsync://c%d/repo" c)
          ~addr:(base + 1) ~host_asn:(100 + c) ~now:0 ~universe ())
  in
  let filenames = ref [] in
  Array.iteri
    (fun c child ->
      let base = (30 lsl 24) lor (c lsl 22) in
      for r = 0 to roas_per_child - 1 do
        let entries =
          List.init entries_per_roa (fun i ->
              let slot = (r * entries_per_roa) + i in
              Roa.entry (V4.Prefix.make (base lor (slot lsl 8)) 24))
        in
        let filename, _ =
          Authority.issue_roa child ~asid:(1000 + (c * 10) + r) ~v4_entries:entries ~now:0 ()
        in
        filenames := (child, filename) :: !filenames
      done)
    children;
  let tals = [ Relying_party.tal_of_authority ta ] in
  let rp = Relying_party.create ~name:"inc" ~asn:1 ~tals () in
  let cold = Relying_party.sync rp ~now:1 ~universe () in
  Alcotest.(check int) "10k VRPs" (n_children * roas_per_child * entries_per_roa)
    (List.length cold.Relying_party.vrps);
  (* warm tick: one new ROA at child 0, one revocation at child 1 *)
  ignore
    (Authority.issue_simple_roa children.(0)
       ~asid:9999
       ~prefix:(V4.Prefix.make ((30 lsl 24) lor 0b1111111111 lsl 8) 24)
       ~now:2 ());
  let victim =
    List.find (fun (a, _) -> Authority.name a = "C1") !filenames |> snd
  in
  Authority.revoke_roa children.(1) ~filename:victim ~now:2;
  let warm = Relying_party.sync rp ~now:2 ~universe () in
  let scratch_rp = Relying_party.create ~name:"scratch" ~asn:1 ~tals () in
  let scratch = Relying_party.sync scratch_rp ~now:2 ~universe () in
  Alcotest.(check (list string)) "warm == scratch"
    (vrp_strings scratch.Relying_party.vrps)
    (vrp_strings warm.Relying_party.vrps);
  Alcotest.(check bool) "untouched points replayed from memo" true
    (warm.Relying_party.points_reused >= 3);
  Alcotest.(check int) "only the touched points revalidated" 2
    warm.Relying_party.points_revalidated;
  Alcotest.(check int) "diff removes the revoked ROA's entries" entries_per_roa
    (List.length warm.Relying_party.diff.Vrp.removed);
  Alcotest.(check int) "diff adds the new ROA" 1
    (List.length warm.Relying_party.diff.Vrp.added);
  let rng = Rpki_util.Rng.create 97 in
  List.iter
    (fun route ->
      Alcotest.(check string)
        (Printf.sprintf "classify %s" (Route.to_string route))
        (Origin_validation.state_to_string
           (Origin_validation.classify scratch.Relying_party.index route))
        (Origin_validation.state_to_string
           (Origin_validation.classify warm.Relying_party.index route)))
    (random_routes rng 64)

(* --- grace bookkeeping and the memo, against eager references ---------

   The relying party stamps grace memory only for VRPs that leave its set,
   reuses the sorted union while every point returns the list it returned
   before, and reports an empty diff without a merge when nothing changed.
   The reference is the eager bookkeeping it replaced: every VRP of the
   set stamped on every sync, the held VRPs scanned out of the whole
   memory, the diff always merged.  Its input, the set before grace, is a
   second relying party's, one without grace; the reference forgets with
   [flush_cache] and takes the restored set as its diff base. *)

let grace_equiv (seed, grace) =
  let w = build_world seed in
  let rng = Rpki_util.Rng.create ((seed * 7) + grace) in
  let tals = [ Relying_party.tal_of_authority w.ta ] in
  let rp = Relying_party.create ~name:"grace" ~asn:1 ~tals ~grace () in
  let plain = Relying_party.create ~name:"plain" ~asn:1 ~tals () in
  let store = Rpki_persist.Store.create (Rpki_persist.Disk.create ()) ~name:"grace" in
  let memory = Hashtbl.create 64 in
  let base = ref [] in
  let saved = ref None in
  let hidden = ref [] in
  let now = ref 0 in
  (* hide a ROA for a while: its VRPs leave the set and come back.  Hidden,
     it is out of [live], so no mutation picks it *)
  let hide () =
    if w.live <> [] then begin
      let ((issuer, filename) as entry) = Rpki_util.Rng.pick rng w.live in
      match Fault.delete_object (Authority.pub issuer) ~filename with
      | Some applied ->
        hidden := (applied, entry) :: !hidden;
        w.live <- List.filter (fun e -> e != entry) w.live
      | None -> ()
    end
  in
  for step = 1 to 12 do
    (match Rpki_util.Rng.int rng 8 with
    | 0 | 1 -> mutate w rng ~now:!now
    | 2 when w.live <> [] -> hide ()
    | 2 | 3 ->
      List.iter
        (fun (applied, entry) ->
          Fault.repair applied;
          w.live <- entry :: w.live)
        !hidden;
      hidden := []
    | 4 -> Authority.roll_key (Rpki_util.Rng.pick rng (Array.to_list w.children)) ~now:!now
    | 5 ->
      (* forget, then lose a VRP: nothing holds it *)
      Relying_party.flush_cache rp;
      Hashtbl.reset memory;
      hide ()
    | 6 ->
      ignore (Relying_party.save rp ~now:!now store);
      saved := Some !base
    | _ -> (
      match (!saved, Relying_party.restore rp store) with
      | Some set, Relying_party.Recovered _ -> base := set
      | _ -> ()));
    now := !now + 1 + Rpki_util.Rng.int rng 3;
    let r = Relying_party.sync rp ~now:!now ~universe:w.universe () in
    let current = (Relying_party.sync plain ~now:!now ~universe:w.universe ()).Relying_party.vrps in
    (* the eager reference *)
    List.iter (fun v -> Hashtbl.replace memory v !now) current;
    let held =
      Hashtbl.fold
        (fun v last acc ->
          if Rtime.diff !now last <= grace && not (List.exists (Vrp.equal v) current) then v :: acc
          else acc)
        memory []
      |> List.sort Vrp.compare
    in
    let effective = List.sort_uniq Vrp.compare (current @ held) in
    let diff = Vrp.diff_of ~before:!base ~after:effective in
    base := effective;
    let fail what = QCheck.Test.fail_reportf "seed %d grace %d step %d: %s" seed grace step what in
    if vrp_strings r.Relying_party.vrps <> vrp_strings effective then fail "effective sets differ";
    if
      vrp_strings r.Relying_party.diff.Vrp.added <> vrp_strings diff.Vrp.added
      || vrp_strings r.Relying_party.diff.Vrp.removed <> vrp_strings diff.Vrp.removed
    then fail "diffs differ";
    let holds =
      List.filter_map
        (fun (i : Relying_party.issue) ->
          if i.Relying_party.kind = Validation.Ik_grace_hold then Some i.Relying_party.reason
          else None)
        r.Relying_party.issues
    in
    let expected =
      List.map (fun v -> Printf.sprintf "grace: holding disappeared VRP %s" (Vrp.to_string v)) held
    in
    if holds <> expected then fail "grace-hold issues differ";
    (* every fetched point's VRPs, against a scan of the whole memo *)
    let memo = Relying_party.memoized rp in
    List.iter
      (fun (uri, _) ->
        let scanned =
          List.sort_uniq Vrp.compare
            (List.concat_map (fun (u, vrps) -> if String.equal u uri then vrps else []) memo)
        in
        if vrp_strings (Relying_party.point_vrps rp ~uri) <> vrp_strings scanned then
          fail ("point_vrps differs from the memo scan at " ^ uri))
      r.Relying_party.fetches
  done;
  true

let prop_grace_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"grace bookkeeping == the eager reference"
       (QCheck.make
          ~print:(fun (s, g) -> Printf.sprintf "seed %d grace %d" s g)
          QCheck.Gen.(pair (int_range 1 1000) (int_range 0 4)))
       grace_equiv)

let () =
  Alcotest.run "incremental"
    [ ( "equivalence",
        [ prop_equivalence; prop_transport_equivalence;
          Alcotest.test_case "10k VRPs, warm tick" `Quick test_equivalence_10k ] );
      ("grace", [ prop_grace_equivalence ]) ]
