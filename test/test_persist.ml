(* The persistence layer, tested as invariants:

   - the checksummed snapshot codec round-trips arbitrary record batches
     bit-identically, and NO single-byte corruption of an encoded snapshot
     is ever silently accepted — every flip decodes to a typed error;
   - the generation-numbered store survives its simulated-disk fault
     envelope (torn write, partial flush, bit flip, dropped rename) by
     degrading to an explicit [load_error], never by serving bad bytes;
   - a relying party's saved state restores bit-identically: saving the
     restored instance reproduces the same records. *)

open Rpki_persist
open Rpki_repo

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 5000)

(* A deterministic batch of records for a seed: arbitrary kinds and binary
   payloads, empty payloads included. *)
let snapshot_of_seed seed =
  let rng = Rpki_util.Rng.create seed in
  let n = Rpki_util.Rng.int rng 12 in
  let records =
    List.init n (fun i ->
        let len = Rpki_util.Rng.int rng 64 in
        let payload = String.init len (fun _ -> Char.chr (Rpki_util.Rng.int rng 256)) in
        { Codec.r_kind = Printf.sprintf "kind-%d-%d" seed i; r_payload = payload })
  in
  { Codec.s_generation = 1 + Rpki_util.Rng.int rng 1000;
    s_saved_at = Rpki_util.Rng.int rng 1000; s_records = records }

let flip s i =
  let b = Bytes.of_string s in
  let i = i mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8) lor 1)));
  Bytes.to_string b

(* --- codec properties --- *)

let prop_roundtrip seed =
  let snap = snapshot_of_seed seed in
  match Codec.decode (Codec.encode snap) with
  | Ok got -> got = snap
  | Error _ -> false

(* Encoding is a function of the value alone — two encodes are identical
   bytes (what makes save/compare/restore deterministic). *)
let prop_deterministic seed =
  let snap = snapshot_of_seed seed in
  String.equal (Codec.encode snap) (Codec.encode snap)

(* Any single corrupted byte is detected: decode returns a typed error.
   Silently returning a snapshot — identical or not — would be the failure
   mode a rollback adversary (or plain bit rot) needs. *)
let prop_corruption_detected seed =
  let snap = snapshot_of_seed seed in
  let bytes = Codec.encode snap in
  let rng = Rpki_util.Rng.create (seed * 7 + 1) in
  List.for_all
    (fun _ ->
      let i = Rpki_util.Rng.int rng (String.length bytes) in
      match Codec.decode (flip bytes i) with
      | Error (Codec.Bad_magic _ | Codec.Checksum_mismatch _ | Codec.Malformed _) -> true
      | Ok _ -> false)
    (List.init 24 Fun.id)

(* The outer checksum must cover the generation and timestamp, not just the
   body: a tampered generation with an intact body is still a rejection. *)
let test_generation_covered () =
  let snap =
    { Codec.s_generation = 3; s_saved_at = 9;
      s_records = [ { Codec.r_kind = "k"; r_payload = "hello" } ] }
  in
  let ok = Codec.encode snap in
  let forged = Codec.encode { snap with Codec.s_generation = 4 } in
  (* splice the forged prefix onto the honest digest by decoding both and
     checking they differ in the bytes before the digest *)
  Alcotest.(check bool) "different generations encode differently" false
    (String.equal ok forged);
  match Codec.decode ok with
  | Ok got -> Alcotest.(check int) "generation survives" 3 got.Codec.s_generation
  | Error e -> Alcotest.fail (Codec.error_to_string e)

(* --- store and fault envelope --- *)

let records tag =
  [ { Codec.r_kind = "meta"; r_payload = tag };
    { Codec.r_kind = "data"; r_payload = String.make 257 'x' } ]

let test_store_roundtrip () =
  let disk = Disk.create () in
  let store = Store.create disk ~name:"rp" in
  Alcotest.(check bool) "empty store: no snapshot" true
    (Store.load store = Error Store.No_snapshot);
  let g1 = Store.save store ~now:5 (records "one") in
  Alcotest.(check int) "first generation" 1 g1.Store.generation;
  Alcotest.(check bool) "first save reads back" true g1.Store.intact;
  let g2 = Store.save store ~now:6 (records "two") in
  Alcotest.(check int) "second generation" 2 g2.Store.generation;
  Alcotest.(check int) "marker follows" 2 (Store.generation store);
  (match Store.load store with
  | Ok snap ->
    Alcotest.(check int) "loaded generation" 2 snap.Codec.s_generation;
    Alcotest.(check int) "loaded timestamp" 6 snap.Codec.s_saved_at;
    Alcotest.(check bool) "latest records" true (snap.Codec.s_records = records "two")
  | Error e -> Alcotest.fail (Store.load_error_to_string e));
  Store.wipe store;
  Alcotest.(check bool) "wiped store: no snapshot" true
    (Store.load store = Error Store.No_snapshot)

(* Every injected disk fault on the *last* save degrades to an explicit
   typed error — and never crashes, and never silently serves the corrupt
   generation as good. *)
let test_fault_envelope () =
  List.iter
    (fun fault ->
      let disk = Disk.create () in
      let store = Store.create disk ~name:"rp" in
      ignore (Store.save store ~now:1 (records "good"));
      Disk.inject disk fault;
      let doomed = Store.save store ~now:2 (records "doomed") in
      Alcotest.(check bool)
        (Printf.sprintf "%s fired" (Disk.fault_to_string fault))
        true
        (List.mem fault (Disk.fired disk));
      Alcotest.(check bool)
        (Printf.sprintf "%s: save reports a damaged file" (Disk.fault_to_string fault))
        false doomed.Store.intact;
      match (fault, Store.load store) with
      | Disk.Drop_rename, Error (Store.Stale { snap_generation; marker }) ->
        (* the data rename was lost: the marker ran ahead of the snapshot *)
        Alcotest.(check int) "stale snapshot generation" 1 snap_generation;
        Alcotest.(check int) "marker ahead" 2 marker
      | (Disk.Torn_write | Disk.Partial_flush | Disk.Bit_flip _), Error (Store.Corrupt _) ->
        ()
      | _, got ->
        Alcotest.fail
          (Printf.sprintf "%s: expected an explicit degraded load, got %s"
             (Disk.fault_to_string fault)
             (match got with
             | Ok _ -> "Ok"
             | Error e -> Store.load_error_to_string e)))
    [ Disk.Torn_write; Disk.Partial_flush; Disk.Bit_flip 54321; Disk.Drop_rename ]

(* --- relying-party snapshots --- *)

let synced_rp () =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"persist-rp" m in
  ignore (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ());
  Relying_party.note_peer_head rp ~peer:"peer-a"
    (Rpki_transparency.Log.head (Relying_party.transparency_log rp) ~at:1);
  (m, rp)

let saved_records store =
  match Store.load store with
  | Ok snap -> snap.Codec.s_records
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

let test_rp_save_restore_bit_identical () =
  let m, rp = synced_rp () in
  let disk = Disk.create () in
  let store = Store.create disk ~name:"persist-rp" in
  ignore (Relying_party.save rp ~now:2 ~rtr_serial:7 store);
  let original = saved_records store in
  let fresh =
    Relying_party.create ~name:"persist-rp" ~asn:Relying_party.(asn rp)
      ~tals:[ Relying_party.tal_of_authority m.Model.arin ] ~log_epoch:1 ()
  in
  (match Relying_party.restore fresh store with
  | Relying_party.Recovered { rc_generation; rc_saved_at; rc_rtr_serial } ->
    Alcotest.(check int) "generation" 1 rc_generation;
    Alcotest.(check int) "saved_at" 2 rc_saved_at;
    Alcotest.(check int) "rtr serial" 7 rc_rtr_serial
  | Relying_party.Recovered_fresh why ->
    Alcotest.fail (Relying_party.fresh_reason_to_string why));
  (* the restore overrode the pessimistic fresh epoch with the persisted one *)
  Alcotest.(check int) "epoch restored" (Relying_party.log_epoch rp)
    (Relying_party.log_epoch fresh);
  Alcotest.(check bool) "VRPs restored" true
    (Relying_party.vrps fresh = Relying_party.vrps rp);
  Alcotest.(check bool) "peer heads restored" true
    (Relying_party.peer_heads fresh = Relying_party.peer_heads rp);
  (* saving the restored instance reproduces the exact same records — the
     persisted state is bit-identical through a save/restore cycle *)
  ignore (Relying_party.save fresh ~now:2 ~rtr_serial:7 store);
  Alcotest.(check bool) "re-saved records identical" true
    (saved_records store = original)

(* Any single-byte corruption of a real relying-party snapshot is caught by
   restore as a typed fresh-start, never a crash, never a partial trust. *)
let test_rp_corrupt_snapshot_explicit () =
  let m, rp = synced_rp () in
  let disk = Disk.create () in
  let store = Store.create disk ~name:"persist-rp" in
  ignore (Relying_party.save rp ~now:2 store);
  let rng = Rpki_util.Rng.create 97 in
  for _ = 1 to 16 do
    let bytes = Option.get (Disk.read disk ~name:"persist-rp.snap") in
    let i = Rpki_util.Rng.int rng (String.length bytes) in
    Disk.write disk ~name:"persist-rp.snap" (flip bytes i);
    let fresh =
      Relying_party.create ~name:"persist-rp" ~asn:(Relying_party.asn rp)
        ~tals:[ Relying_party.tal_of_authority m.Model.arin ] ~log_epoch:1 ()
    in
    (match Relying_party.restore fresh store with
    | Relying_party.Recovered _ ->
      Alcotest.fail "corrupted snapshot restored as good"
    | Relying_party.Recovered_fresh
        Relying_party.(No_snapshot | Snapshot_stale _) ->
      Alcotest.fail "corruption misreported"
    | Relying_party.Recovered_fresh
        Relying_party.(Snapshot_corrupt _ | Log_inconsistent _) -> ());
    (* the untouched fresh instance keeps its own (bumped) epoch *)
    Disk.write disk ~name:"persist-rp.snap" bytes
  done

(* --- segmented persistence vs the uncompacted reference ----------------

   The endurance refactor's soundness property: under ARBITRARY
   interleavings of churn, incremental (segment) saves — sometimes under a
   one-shot disk fault — compaction — likewise — and mid-run
   crash/restores, a relying party restored from the segment chain is
   indistinguishable from one restored from an uncompacted full-snapshot
   store fed the same states: same transparency-log head, same VRP set,
   same peer heads.  A faulted save leaves a chain that does not restore
   until the next save, so no restart follows one and the last save is
   clean. *)

let drain_armed_fault disk =
  (* a fault armed for a compaction that never wrote must not leak into the
     next save: fire it against scratch bytes instead *)
  (match Disk.armed disk with
  | None -> ()
  | Some (Disk.Torn_write | Disk.Partial_flush | Disk.Bit_flip _) ->
    Disk.write disk ~name:".scratch" "xx"
  | Some Disk.Drop_rename ->
    Disk.write disk ~name:".scratch" "xx";
    Disk.rename disk ~src:".scratch" ~dst:".scratch");
  Disk.delete disk ~name:".scratch"

let prop_segmented_matches_uncompacted seed =
  let rng = Rpki_util.Rng.create (seed * 13 + 5) in
  let m = Model.build () in
  let rp = ref (Model.relying_party ~name:"seg-rp" m) in
  let tals = [ Relying_party.tal_of_authority m.Model.arin ] in
  let seg_disk = Disk.create () and full_disk = Disk.create () in
  let seg = Store.create seg_disk ~name:"seg-rp" in
  let full = Store.create full_disk ~name:"seg-rp" in
  let faults =
    [| Disk.Torn_write; Disk.Partial_flush; Disk.Bit_flip (seed * 31); Disk.Drop_rename |]
  in
  let restore_or_fail store =
    let fresh =
      Relying_party.create ~name:"seg-rp" ~asn:(Relying_party.asn !rp) ~tals
        ~log_epoch:1 ()
    in
    match Relying_party.restore fresh store with
    | Relying_party.Recovered _ -> fresh
    | Relying_party.Recovered_fresh why ->
      QCheck.Test.fail_reportf "seed %d: restore degraded: %s" seed
        (Relying_party.fresh_reason_to_string why)
  in
  (* every ROA of the model, with its issuer: each round expires or renews
     up to two of them, so most rounds change the VRP set and most segments
     carry a VRP diff *)
  let roas =
    Array.of_list
      (List.map (fun (ca, filename, _) -> (ca, filename)) (Authority.all_roas m.Model.arin))
  in
  let rounds = 4 + Rpki_util.Rng.int rng 3 in
  for now = 1 to rounds do
    if Rpki_util.Rng.int rng 3 = 0 then Authority.maintain m.Model.arin ~now;
    for _ = 1 to Rpki_util.Rng.int rng 3 do
      let ca, filename = roas.(Rpki_util.Rng.int rng (Array.length roas)) in
      if Rpki_util.Rng.int rng 2 = 0 then Authority.expire_roa ca ~filename ~now
      else ignore (Authority.renew_roa ca ~filename ~now)
    done;
    ignore (Relying_party.sync !rp ~now ~universe:m.Model.universe ());
    let faulted = now < rounds && Rpki_util.Rng.int rng 3 = 0 in
    if faulted then Disk.inject seg_disk faults.(Rpki_util.Rng.int rng 4);
    ignore (Relying_party.save !rp ~now ~mode:`Auto seg);
    ignore (Relying_party.save !rp ~now ~mode:`Full full);
    match Rpki_util.Rng.int rng 4 with
    | 0 ->
      (* fold the chain, half the time under a one-shot fault: compaction
         must either complete or leave the old chain untouched *)
      if Rpki_util.Rng.int rng 2 = 0 then
        Disk.inject seg_disk faults.(Rpki_util.Rng.int rng 4);
      ignore (Relying_party.compact_store seg ~now);
      drain_armed_fault seg_disk
    | 1 when not faulted ->
      (* crash and restart: continue from what the segment chain restores *)
      rp := restore_or_fail seg
    | _ -> ()
  done;
  let a = restore_or_fail seg in
  let b = restore_or_fail full in
  let root r =
    Rpki_transparency.Log.encode_head
      (Rpki_transparency.Log.head (Relying_party.transparency_log r) ~at:0)
  in
  if not (String.equal (root a) (root b)) then
    QCheck.Test.fail_reportf "seed %d: log heads diverge" seed;
  if Relying_party.vrps a <> Relying_party.vrps b then
    QCheck.Test.fail_reportf "seed %d: VRP sets diverge" seed;
  if Relying_party.vrps a <> Relying_party.vrps !rp then
    QCheck.Test.fail_reportf "seed %d: restored VRP set is not the saved one" seed;
  if Relying_party.peer_heads a <> Relying_party.peer_heads b then
    QCheck.Test.fail_reportf "seed %d: peer heads diverge" seed;
  true

(* --- the VRP set as a diff ---------------------------------------------

   A segment carries the VRP set only when it changed since the store's
   previous save, and then as one diff against the set the chain restores
   to.  Restore and compaction apply the diffs onto the base's full set. *)

let newest_records store =
  match Store.load_chain store with
  | Ok chain -> (List.nth chain (List.length chain - 1)).Codec.s_records
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

let vrp_records records =
  List.filter (fun (r : Codec.record) -> List.mem r.Codec.r_kind [ "vrps"; "vrps-diff" ]) records

let restored_vrps ~name ~asn store =
  let fresh = Relying_party.create ~name ~asn ~tals:[] ~log_epoch:1 () in
  match Relying_party.restore fresh store with
  | Relying_party.Recovered _ -> Relying_party.vrps fresh
  | Relying_party.Recovered_fresh why ->
    Alcotest.fail (Relying_party.fresh_reason_to_string why)

let test_vrp_diff_segments () =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"diff-rp" m in
  let asn = Relying_party.asn rp in
  let store = Store.create (Disk.create ()) ~name:"diff-rp" in
  let tick now =
    ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ());
    ignore (Relying_party.save rp ~now store)
  in
  tick 1;
  let set_payload =
    match vrp_records (newest_records store) with
    | [ { Codec.r_kind = "vrps"; r_payload } ] -> r_payload
    | _ -> Alcotest.fail "the base does not carry exactly one full VRP set"
  in
  tick 2;
  Alcotest.(check int) "a tick with no change writes no VRP record" 0
    (List.length (vrp_records (newest_records store)));
  Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:3;
  tick 3;
  let diff = (Option.get (Relying_party.last_result rp)).Relying_party.diff in
  Alcotest.(check int) "the tick removed one VRP" 1 (Rpki_core.Vrp.diff_size diff);
  (match vrp_records (newest_records store) with
  | [ { Codec.r_kind = "vrps-diff"; r_payload } ] ->
    (* one VRP is at most 22 bytes of DER and the two lists 8 more: the
       record grows with the diff, while the full set is 8 VRPs *)
    Alcotest.(check bool) "the diff record is sized by the diff" true
      (String.length r_payload <= 8 + (22 * Rpki_core.Vrp.diff_size diff));
    Alcotest.(check bool) "and smaller than the full set" true
      (String.length r_payload < String.length set_payload)
  | _ -> Alcotest.fail "a tick with a change did not write exactly one VRP diff");
  tick 4;
  Alcotest.(check int) "three segments" 3 (Store.segment_count store);
  Alcotest.(check bool) "restore gives back the saved set" true
    (restored_vrps ~name:"diff-rp" ~asn store = Relying_party.vrps rp);
  (match Relying_party.compact_store store ~now:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "compacted" 0 (Store.segment_count store);
  Alcotest.(check bool) "the folded base gives back the saved set" true
    (restored_vrps ~name:"diff-rp" ~asn store = Relying_party.vrps rp);
  (* a save after compaction diffs against the folded set *)
  Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_26 ~now:5;
  tick 5;
  Alcotest.(check bool) "the next segment restores onto the folded base" true
    (restored_vrps ~name:"diff-rp" ~asn store = Relying_party.vrps rp);
  (* a change that keeps the set's size is saved too *)
  ignore (Authority.renew_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:6);
  Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_28 ~now:6;
  tick 6;
  let diff = (Option.get (Relying_party.last_result rp)).Relying_party.diff in
  Alcotest.(check (pair int int)) "one VRP in, one out" (1, 1)
    (List.length diff.Rpki_core.Vrp.added, List.length diff.Rpki_core.Vrp.removed);
  Alcotest.(check bool) "a same-size change restores" true
    (restored_vrps ~name:"diff-rp" ~asn store = Relying_party.vrps rp)

(* The first save's data rename is lost while the marker still reaches 1:
   the store has a marker and no base.  The next save must write a base
   again, not seal its delta as one, or the store stays unrestorable. *)
let test_lost_base_rewritten () =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"lost-rp" m in
  let asn = Relying_party.asn rp in
  let disk = Disk.create () in
  let store = Store.create disk ~name:"lost-rp" in
  Disk.inject disk Disk.Drop_rename;
  for now = 1 to 4 do
    ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ());
    ignore (Relying_party.save rp ~now store);
    if now = 1 then begin
      Alcotest.(check int) "the marker reached 1" 1 (Store.generation store);
      Alcotest.(check int) "the base was lost" 0 (Store.snapshot_bytes store)
    end
    else
      Alcotest.(check bool)
        (Printf.sprintf "restores after t%d" now)
        true
        (restored_vrps ~name:"lost-rp" ~asn store = Relying_party.vrps rp)
  done;
  (match Relying_party.compact_store store ~now:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "restores after compaction" true
    (restored_vrps ~name:"lost-rp" ~asn store = Relying_party.vrps rp);
  Store.wipe store;
  Alcotest.check_raises "append without a base"
    (Invalid_argument "Store.append: no base snapshot to append to") (fun () ->
      ignore (Store.append store ~now:5 (records "delta")))

(* The t2 segment save is faulted.  A lost data rename leaves the marker
   naming generation 2, whose file never landed, and restore reads that
   crash window as stale; a torn, partially flushed or bit-flipped write
   leaves a segment 2 that restore reads as corrupt.  Either way the save
   sees its file did not read back intact, and the next save writes a base
   again instead of appending behind it, so every later save restores and
   the chain compacts. *)
let segment_fault_rewritten fault =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"gap-rp" m in
  let asn = Relying_party.asn rp in
  let disk = Disk.create () in
  let store = Store.create disk ~name:"gap-rp" in
  for now = 1 to 6 do
    if now = 2 then Disk.inject disk fault;
    if now = 4 then Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now;
    ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ());
    ignore (Relying_party.save rp ~now store);
    let fresh = Relying_party.create ~name:"gap-rp" ~asn ~tals:[] ~log_epoch:1 () in
    match (now, fault, Relying_party.restore fresh store) with
    | 2, Disk.Drop_rename, Relying_party.Recovered_fresh (Relying_party.Snapshot_stale _) -> ()
    | ( 2,
        (Disk.Torn_write | Disk.Partial_flush | Disk.Bit_flip _),
        Relying_party.Recovered_fresh (Relying_party.Snapshot_corrupt _) ) ->
      ()
    | 2, _, r ->
      Alcotest.failf "t2 is the %s window, not %s" (Disk.fault_to_string fault)
        (Relying_party.recovery_to_string r)
    | _, _, Relying_party.Recovered _ ->
      Alcotest.(check bool)
        (Printf.sprintf "t%d restores the saved set" now)
        true
        (Relying_party.vrps fresh = Relying_party.vrps rp)
    | _, _, r -> Alcotest.failf "t%d: %s" now (Relying_party.recovery_to_string r)
  done;
  Alcotest.(check int) "segments on the rewritten base" 3 (Store.segment_count store);
  (match Relying_party.compact_store store ~now:6 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "restores after compaction" true
    (restored_vrps ~name:"gap-rp" ~asn store = Relying_party.vrps rp)

let test_lost_segment_rewritten () = segment_fault_rewritten Disk.Drop_rename

let test_damaged_segment_rewritten () =
  List.iter segment_fault_rewritten [ Disk.Torn_write; Disk.Partial_flush; Disk.Bit_flip 4242 ]

(* One writer for a base: compacting a chain saved through t writes the
   records a [`Full] save of the state at t writes, byte for byte, peer
   heads and their order included. *)
let test_compaction_writes_a_full_base () =
  let m = Model.build () in
  let rp = Model.relying_party ~name:"base-rp" m in
  let seg = Store.create (Disk.create ()) ~name:"base-rp" in
  let full = Store.create (Disk.create ()) ~name:"base-rp" in
  for now = 1 to 4 do
    if now = 2 then Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now;
    if now = 3 then ignore (Authority.renew_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now);
    ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ());
    Relying_party.note_peer_head rp ~peer:(Printf.sprintf "peer-%d" (now mod 3))
      (Rpki_transparency.Log.head (Relying_party.transparency_log rp) ~at:now);
    ignore (Relying_party.save rp ~now ~rtr_serial:now seg)
  done;
  Alcotest.(check int) "three peer heads" 3 (List.length (Relying_party.peer_heads rp));
  ignore (Relying_party.save rp ~now:4 ~rtr_serial:4 ~mode:`Full full);
  Alcotest.(check int) "three segments" 3 (Store.segment_count seg);
  (match Relying_party.compact_store seg ~now:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "the same records" true (saved_records seg = saved_records full)

let prop c n p = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:c ~name:n seed_gen p)

let () =
  Alcotest.run "persist"
    [ ("codec",
       [ prop 100 "snapshots round-trip bit-identically" prop_roundtrip;
         prop 50 "encoding is deterministic" prop_deterministic;
         prop 60 "any single-byte corruption is detected" prop_corruption_detected;
         Alcotest.test_case "checksum covers the generation" `Quick test_generation_covered ]);
      ("store",
       [ Alcotest.test_case "save/load/wipe round-trip" `Quick test_store_roundtrip;
         Alcotest.test_case "fault envelope degrades explicitly" `Quick test_fault_envelope ]);
      ("segment-chain",
       [ prop 16 "segmented+compacted store matches the uncompacted reference"
           prop_segmented_matches_uncompacted ]);
      ("relying-party",
       [ Alcotest.test_case "save/restore is bit-identical" `Quick
           test_rp_save_restore_bit_identical;
         Alcotest.test_case "corrupt snapshots fail closed" `Quick
           test_rp_corrupt_snapshot_explicit;
         Alcotest.test_case "segments carry the VRP set as a diff" `Quick
           test_vrp_diff_segments;
         Alcotest.test_case "a lost base is written again" `Quick test_lost_base_rewritten;
         Alcotest.test_case "a lost segment rename writes a base again" `Quick
           test_lost_segment_rewritten;
         Alcotest.test_case "a damaged segment write writes a base again" `Quick
           test_damaged_segment_rewritten;
         Alcotest.test_case "compaction writes what a full save writes" `Quick
           test_compaction_writes_a_full_base ]) ]
