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

(* --- object reuse inside a changed point --------------------------------

   [Point.validate ?prev] replays an object's contribution from the earlier
   validation when nothing it read has changed.  The oracle: on any
   sequence of (point state, instant), validating with the previous step's
   results gives, field for field, what a validation without them gives.

   The states are a CA [C] under a trust anchor, with five ROAs (one
   outside the /17 the reissued certificate keeps) and a child CA [G], as
   they evolve: refreshed, a ROA renewed under its name, one postdated
   across its notBefore, one revoked with its old bytes served again and
   then its CRL withheld, the manifest withheld, [G] revoked with its old
   certificate served again (a failing child CA).  Each listing also comes
   with an undecodable unlisted file, an extra CRL and an extra manifest,
   and one in reverse order, and each is validated under [C]'s certificate
   and a reissued one.  ROAs cross notAfter at 25 and the postdated one
   notBefore at 10. *)

type reuse_state = { rs_cert : Cert.t; rs_fp : string; rs_listing : (string * string) list }

let reuse_states =
  lazy
    (let universe = Universe.create () in
     let res s = Resources.of_v4_strings [ s ] in
     let ta =
       Authority.create_trust_anchor ~name:"TA-reuse" ~resources:(res "30.0.0.0/8")
         ~uri:"rsync://ta-reuse/repo" ~addr:(V4.addr_of_string_exn "198.51.100.1") ~host_asn:1
         ~now:0 ~universe ~validity:60 ()
     in
     let c =
       Authority.create_child ta ~name:"C-reuse" ~resources:(res "30.1.0.0/16")
         ~uri:"rsync://c-reuse/repo" ~addr:(V4.addr_of_string_exn "30.1.0.1") ~host_asn:2 ~now:0
         ~universe ~validity:24 ~refresh_interval:8 ()
     in
     let g =
       Authority.create_child c ~name:"G-reuse" ~resources:(res "30.1.128.0/17")
         ~uri:"rsync://g-reuse/repo" ~addr:(V4.addr_of_string_exn "30.1.128.1") ~host_asn:3
         ~now:0 ~universe ()
     in
     let roa i third =
       fst
         (Authority.issue_simple_roa c ~asid:(100 + i)
            ~prefix:(V4.p (Printf.sprintf "30.1.%d.0/20" third))
            ~now:0 ())
     in
     let r0 = roa 0 0 and r1 = roa 1 16 and r2 = roa 2 32 and _ = roa 3 48 and _ = roa 4 192 in
     let pub = Authority.pub c in
     let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
     let listings = ref [] in
     let keep l = listings := sort l :: !listings in
     let snapshot () = Pub_point.snapshot pub in
     keep (snapshot ());
     Authority.refresh c ~now:2;
     keep (snapshot ());
     ignore (Authority.renew_roa c ~filename:r0 ~now:3);
     keep (snapshot ());
     Authority.postdate_roa c ~filename:r1 ~delay:6 ~now:4;
     keep (snapshot ());
     let old_r2 = (r2, Option.get (Pub_point.get pub ~filename:r2)) in
     Authority.revoke_roa c ~filename:r2 ~now:5;
     let revoked = old_r2 :: snapshot () in
     keep revoked;
     let crl = Authority.name c ^ ".crl" in
     keep (List.remove_assoc crl revoked);
     keep (List.remove_assoc (Authority.manifest_filename c) revoked);
     let g_file = Authority.name g ^ ".cer" in
     let old_g = (g_file, Option.get (Pub_point.get pub ~filename:g_file)) in
     Authority.revoke_child c g ~now:6;
     keep (old_g :: snapshot ());
     let ta_pub = Authority.pub ta in
     let extras =
       [ ("junk.roa", "not an object");
         ("extra.crl", Option.get (Pub_point.get ta_pub ~filename:(Authority.name ta ^ ".crl")));
         ("extra.mft", Option.get (Pub_point.get ta_pub ~filename:(Authority.manifest_filename ta)))
       ]
     in
     let listings = List.rev !listings in
     let listings =
       listings @ List.map (fun l -> sort (extras @ l)) listings @ [ List.rev (List.hd listings) ]
     in
     let state cert =
       let rs_fp = Rpki_crypto.Sha256.digest (Cert.encode cert) in
       List.map (fun l -> { rs_cert = cert; rs_fp; rs_listing = l }) listings
     in
     let issued = Authority.cert c in
     let reissued = Authority.shrink_child_cert ta c ~resources:(res "30.1.0.0/17") ~now:7 in
     Array.of_list (state issued @ state reissued))

(* Everything an outcome says, field by field, in order. *)
let outcome_fields (o : Valcache.outcome) =
  let module V = Valcache in
  let hex = Rpki_util.Hex.of_string in
  [ ("at", [ string_of_int o.V.o_at ]);
    ("keys", [ hex o.V.o_parent_fp; o.V.o_snap_fp ]);
    ("boundaries", List.map string_of_int o.V.o_boundaries);
    ("VRPs", List.map Vrp.to_string o.V.o_vrps);
    ("VRP-set hash", [ hex o.V.o_vrp_hash ]);
    ( "issues",
      List.map
        (fun (filename, kind, reason) ->
          Printf.sprintf "%s %s: %s" (Option.value filename ~default:"-")
            (Validation.issue_kind_to_string kind) reason)
        o.V.o_issues );
    ("failed resources", [ Resources.to_string o.V.o_failed_resources ]);
    ( "children",
      List.map
        (fun ((c : Cert.t), fp) -> Printf.sprintf "%s #%d %s" c.Cert.subject c.Cert.serial (hex fp))
        o.V.o_children );
    ("manifest", [ string_of_int o.V.o_mft_number; hex o.V.o_mft_hash ]) ]

let object_reuse steps =
  let states = Lazy.force reuse_states in
  ignore
    (List.fold_left
       (fun prev (i, now) ->
         let s = states.(i mod Array.length states) in
         let validate ?prev () =
           Point.validate ?prev ~now ~ca_cert:s.rs_cert ~parent_fp:s.rs_fp ~snap_fp:"listing"
             s.rs_listing
         in
         let reused, results = validate ?prev () in
         let fresh, _ = validate () in
         List.iter2
           (fun (field, a) (_, b) ->
             if a <> b then
               QCheck.Test.fail_reportf "state %d at %d: %s differ\n  reused: %s\n  fresh:  %s"
                 (i mod Array.length states) now field (String.concat " | " a)
                 (String.concat " | " b))
           (outcome_fields reused) (outcome_fields fresh);
         Some results)
       None steps);
  true

let prop_object_reuse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"object reuse == fresh point validation"
       QCheck.(list_of_size Gen.(int_range 2 6) (pair (int_bound 1000) (int_bound 40)))
       object_reuse)

(* The work a refresh leaves: on the Section 6 model without a shared
   plane, the sync after Continental re-signs its manifest and CRL checks
   the trust anchor, the manifest's EE certificate and content and the CRL
   (4 RSA verifications; its five ROAs are replayed), and the next tick
   revalidates no point: a refresh's thisUpdate is no boundary. *)
let test_refresh_work () =
  let m = Model.build () in
  let rp = Model.relying_party m in
  let sync now = Relying_party.sync rp ~now ~universe:m.Model.universe () in
  ignore (sync 1);
  Authority.refresh m.Model.continental ~now:2;
  let before = Rpki_crypto.Rsa.verification_count () in
  let r = sync 2 in
  Alcotest.(check int) "RSA verifications after the refresh" 4
    (Rpki_crypto.Rsa.verification_count () - before);
  Alcotest.(check int) "one point revalidated" 1 r.Relying_party.points_revalidated;
  Alcotest.(check int) "points revalidated the tick after" 0
    (sync 3).Relying_party.points_revalidated

let () =
  Alcotest.run "incremental"
    [ ( "equivalence",
        [ prop_equivalence; prop_transport_equivalence;
          Alcotest.test_case "10k VRPs, warm tick" `Quick test_equivalence_10k ] );
      ("grace", [ prop_grace_equivalence ]);
      ( "reuse",
        [ prop_object_reuse;
          Alcotest.test_case "a refresh costs its manifest and CRL" `Quick test_refresh_work ] ) ]
