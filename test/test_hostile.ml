(* Hostile input, structure-aware.  Every object a relying party, evidence
   verification or restore reads is decoded to its DER tree and mutated
   once — an INTEGER set to 2^64 or 2^200 (too wide for an int) or to 33 or
   129 (past a prefix length), the two INTEGERs of a pair swapped (a range
   reversed), one element of a list dropped — or its encoding truncated or
   a byte flipped.  Each consumer must answer with a value or a typed
   error, never an exception; and a relying party reports an object it
   cannot decode as a malformed-object issue.  The mutations are
   exhaustive over each tree and seeded over the bytes.

   Plus the bounds on hostile sizes: a huge INTEGER decodes in linear time,
   deep nesting is refused, and a key too wide for the profile rejects
   before any arithmetic. *)

open Rpki_core
open Rpki_repo
module Der = Rpki_asn.Der
module Nat = Rpki_bignum.Nat
module Rsa = Rpki_crypto.Rsa
module Tlog = Rpki_transparency.Log
module Codec = Rpki_persist.Codec

(* --- the mutator --- *)

let children = function Der.Sequence l | Der.Set l | Der.Context (_, l) -> l | _ -> []

let rebuild d l =
  match d with
  | Der.Sequence _ -> Der.Sequence l
  | Der.Set _ -> Der.Set l
  | Der.Context (n, _) -> Der.Context (n, l)
  | d -> d

let pow2 k = Nat.shift_left Nat.one k

(* The one-node mutations that apply to [d]. *)
let node_mutations d =
  (match d with
  | Der.Integer _ ->
    List.map (fun v -> Der.Integer v) [ pow2 64; pow2 200; Nat.of_int 33; Nat.of_int 129 ]
  | Der.Sequence [ (Der.Integer _ as a); (Der.Integer _ as b) ] -> [ Der.Sequence [ b; a ] ]
  | _ -> [])
  @ List.mapi (fun i _ -> rebuild d (List.filteri (fun j _ -> j <> i) (children d))) (children d)

(* Every tree one node mutation away from [d]. *)
let rec tree_mutants d =
  node_mutations d
  @ List.concat
      (List.mapi
         (fun i c ->
           List.map
             (fun c' -> rebuild d (List.mapi (fun j x -> if i = j then c' else x) (children d)))
             (tree_mutants c))
         (children d))

(* Seeded truncations and byte flips of an encoding. *)
let byte_mutants ~seed s =
  let rng = Rpki_util.Rng.create seed in
  let n = String.length s in
  List.init 6 (fun _ -> String.sub s 0 (Rpki_util.Rng.int rng n))
  @ List.init 6 (fun _ ->
        let b = Bytes.of_string s in
        let i = Rpki_util.Rng.int rng n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rpki_util.Rng.int rng 255)));
        Bytes.to_string b)

(* Every mutant of an encoding: the tree mutants re-encoded, then the byte
   mutants. *)
let mutants ~seed bytes =
  (match Der.decode bytes with
  | Ok d -> List.map Der.encode (tree_mutants d)
  | Error e -> Alcotest.failf "the unmutated object does not decode: %s" e)
  @ byte_mutants ~seed bytes

let no_raise what f =
  match f () with
  | v -> v
  | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

(* --- repository objects --- *)

let model = lazy (Model.build ())

(* Every file of every publication point of the Section 6 model. *)
let objects () =
  let m = Lazy.force model in
  List.concat_map
    (fun p -> List.map (fun (f, b) -> (p, f, b)) (Pub_point.files p))
    (Universe.points m.Model.universe)

let test_objects_decode_total () =
  List.iter
    (fun (_, filename, bytes) ->
      List.iteri
        (fun k m ->
          match no_raise (Printf.sprintf "Obj.decode %s mutant %d" filename k) (fun () ->
                    Obj.decode ~filename m)
          with
          | Ok _ | Error _ -> ())
        (mutants ~seed:(Hashtbl.hash filename) bytes))
    (objects ())

(* A fresh relying party syncs over a universe where one object is
   mutated; it must finish, and report the object as malformed when it does
   not decode. *)
let sync_with point ~filename ~original mutant =
  let m = Lazy.force model in
  Pub_point.put point ~filename mutant;
  let result =
    Fun.protect
      ~finally:(fun () -> Pub_point.put point ~filename original)
      (fun () ->
        no_raise ("sync over a mutated " ^ filename) (fun () ->
            Relying_party.sync (Model.relying_party m) ~now:0 ~universe:m.Model.universe ()))
  in
  match Obj.decode ~filename mutant with
  | Ok _ -> ()
  | Error _ ->
    if
      not
        (List.exists
           (fun (i : Relying_party.issue) ->
             i.Relying_party.filename = Some filename
             && i.Relying_party.kind = Validation.Ik_malformed)
           result.Relying_party.issues)
    then Alcotest.failf "undecodable %s not reported as malformed" filename

(* The three crashes one Section 6 ROA reproduced: an EE serial of 2^64, a
   reversed first IPv4 range in the EE certificate, a prefix length of 33.
   And an asID of 2^32 + 17054: signed by a misbehaving CA it used to
   decode, and RTR's 32-bit field would carry it to routers as AS 17054. *)
let test_roa_cases () =
  let m = Lazy.force model in
  let point = Authority.pub m.Model.continental in
  let filename = "roa-11.roa" in
  let original = Option.get (Pub_point.get point ~filename) in
  let rec set path v d =
    match path with
    | [] -> v d
    | i :: rest -> rebuild d (List.mapi (fun j c -> if i = j then set rest v c else c) (children d))
  in
  let mutate path v = Der.encode (set path v (Der.decode_exn original)) in
  (* a ROA is [content; EE certificate; signature]; the content is [asID;
     v4 entries; v6 entries], an entry [address; length; maxLength]; the EE
     certificate is [tbs; signature], the tbs has the serial second and the
     resources eighth, and the resources start with the v4 ranges *)
  let cases =
    [ ("EE serial 2^64", mutate [ 1; 0; 1 ] (fun _ -> Der.Integer (pow2 64)));
      ( "reversed first v4 range",
        mutate [ 1; 0; 7; 0; 0 ] (function
          | Der.Sequence [ lo; hi ] -> Der.Sequence [ hi; lo ]
          | _ -> Alcotest.fail "no v4 range in the EE certificate") );
      ("prefix length 33", mutate [ 0; 1; 0; 1 ] (fun _ -> Der.int_ 33));
      ("asID 2^32 + 17054", mutate [ 0; 0 ] (fun _ -> Der.int_ ((1 lsl 32) + 17054))) ]
  in
  List.iter
    (fun (what, mutant) ->
      (match no_raise what (fun () -> Obj.decode ~filename mutant) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" what);
      sync_with point ~filename ~original mutant)
    cases

(* A seeded sample of all the mutants, each synced over. *)
let test_sync_survives_mutants () =
  let all =
    List.concat_map
      (fun (p, filename, bytes) ->
        List.map (fun m -> (p, filename, bytes, m)) (mutants ~seed:(Hashtbl.hash filename) bytes))
      (objects ())
  in
  let rng = Rpki_util.Rng.create 20 in
  let arr = Array.of_list all in
  for _ = 1 to 150 do
    let p, filename, original, mutant = arr.(Rpki_util.Rng.int rng (Array.length arr)) in
    sync_with p ~filename ~original mutant
  done

(* --- evidence bundles --- *)

(* A real fork bundle: two logs record different states for one (point,
   manifest number), each side proven under its own signed head. *)
let bundle =
  lazy
    (let rng = Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed:"hostile-evidence") in
     let side name tag =
       let kp = Rsa.generate rng in
       let log = Tlog.create ~log_id:name in
       let ob =
         { Tlog.ob_uri = "rsync://ca/repo"; ob_serial = 7;
           ob_manifest_hash = Rpki_crypto.Sha256.digest tag; ob_vrp_hash = "";
           ob_snapshot_fp = ""; ob_at = 3 }
       in
       ignore (Tlog.append log { ob with Tlog.ob_uri = "rsync://other/repo" });
       ignore (Tlog.append log ob);
       let head = Tlog.head log ~at:4 in
       ( (name, kp.Rsa.public),
         { Gossip.att_vantage = name; att_obs = ob; att_index = 1;
           att_head = Tlog.sign_head ~key:kp.Rsa.private_ head;
           att_proof = Tlog.inclusion_proof log ~index:1 ~size:2 } )
     in
     let (ln, lk), left = side "left-rp" "honest" in
     let (rn, rk), right = side "right-rp" "forged" in
     let alarm = Gossip.Fork { fork_uri = "rsync://ca/repo"; fork_serial = 7; left; right } in
     match Evidence.export ~key_of:(fun v -> List.assoc_opt v [ (ln, lk); (rn, rk) ]) alarm with
     | Ok b -> b
     | Error e -> Alcotest.fail e)

let test_evidence_total () =
  let b = Lazy.force bundle in
  (match Evidence.verify b with Ok _ -> () | Error e -> Alcotest.fail ("real bundle: " ^ e));
  List.iteri
    (fun k m ->
      ignore (no_raise (Printf.sprintf "Evidence.verify mutant %d" k) (fun () -> Evidence.verify m)))
    (mutants ~seed:7 b)

(* A key record whose modulus is 256 KB: decoding is linear and the verify
   rejects the out-of-profile key before any arithmetic. *)
let test_evidence_huge_modulus () =
  let d = Der.decode_exn (Lazy.force bundle) in
  let wide = Der.Octet_string ("\x01" ^ String.make (256 * 1024) '\xff') in
  let keys =
    match List.nth (children d) 6 with
    | Der.Sequence ks ->
      Der.Sequence
        (List.map
           (function Der.Sequence [ v; _; e ] -> Der.Sequence [ v; wide; e ] | k -> k)
           ks)
    | _ -> Alcotest.fail "no key records"
  in
  let hostile =
    Der.encode (rebuild d (List.mapi (fun i c -> if i = 6 then keys else c) (children d)))
  in
  match Evidence.verify hostile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a 256 KB modulus verified"

(* --- snapshots --- *)

(* A synced relying party's full snapshot. *)
let snapshot =
  lazy
    (let m = Lazy.force model in
     let rp = Model.relying_party m in
     ignore (Relying_party.sync rp ~now:0 ~universe:m.Model.universe ());
     let disk = Rpki_persist.Disk.create () in
     let store = Rpki_persist.Store.create disk ~name:"rp" in
     ignore (Relying_party.save rp ~now:0 ~mode:`Full store);
     Option.get (Rpki_persist.Disk.read disk ~name:"rp.snap"))

let restore_from bytes =
  let disk = Rpki_persist.Disk.create () in
  Rpki_persist.Disk.write disk ~name:"rp.snap" bytes;
  let store = Rpki_persist.Store.create disk ~name:"rp" in
  Relying_party.restore (Model.relying_party (Lazy.force model)) store

let test_snapshot_total () =
  let snap = Lazy.force snapshot in
  (match restore_from snap with
  | Relying_party.Recovered _ -> ()
  | r -> Alcotest.fail ("real snapshot: " ^ Relying_party.recovery_to_string r));
  (* the container, as stored: its checksums stop most mutants early *)
  List.iteri
    (fun k m ->
      ignore (no_raise (Printf.sprintf "Codec.decode mutant %d" k) (fun () -> Codec.decode m));
      ignore (no_raise (Printf.sprintf "restore of mutant %d" k) (fun () -> restore_from m)))
    (mutants ~seed:11 snap);
  (* each DER record payload mutated and re-sealed, so restore's own
     decoders see it *)
  let c = match Codec.decode snap with Ok c -> c | Error _ -> Alcotest.fail "snapshot" in
  List.iteri
    (fun i (r : Codec.record) ->
      match Der.decode r.Codec.r_payload with
      | Error _ -> () (* not DER: an observation, covered by the log's own property *)
      | Ok _ ->
        List.iter
          (fun p ->
            let records =
              List.mapi (fun j x -> if i = j then { x with Codec.r_payload = p } else x)
                c.Codec.s_records
            in
            ignore
              (no_raise ("restore of a re-sealed " ^ r.Codec.r_kind) (fun () ->
                   restore_from (Codec.encode { c with Codec.s_records = records }))))
          (mutants ~seed:i r.Codec.r_payload))
    c.Codec.s_records

(* --- segmented chains --- *)

(* A chain of a base and three segments: the first segment carries a VRP
   diff (one ROA expired) and new observations, the second none, the third
   a diff (the ROA renewed).  Its own model, so the shared one stays as
   built.  Returns the store's files. *)
let chain =
  lazy
    (let m = Model.build () in
     let rp = Model.relying_party m in
     let disk = Rpki_persist.Disk.create () in
     let store = Rpki_persist.Store.create disk ~name:"rp" in
     let tick now =
       ignore (Relying_party.sync rp ~now ~universe:m.Model.universe ());
       ignore (Relying_party.save rp ~now store)
     in
     tick 0;
     Authority.expire_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:1;
     tick 1;
     tick 2;
     ignore (Authority.renew_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:3);
     tick 3;
     List.map
       (fun name -> (name, Option.get (Rpki_persist.Disk.read disk ~name)))
       (Rpki_persist.Disk.files disk))

let store_of files =
  let disk = Rpki_persist.Disk.create () in
  List.iter (fun (name, bytes) -> Rpki_persist.Disk.write disk ~name bytes) files;
  (disk, Rpki_persist.Store.create disk ~name:"rp")

let is_kind kind (r : Codec.record) = String.equal r.Codec.r_kind kind

(* The chain with [file]'s records rewritten by [f], re-sealed. *)
let rewrite ~file f =
  List.map
    (fun (n, b) ->
      if not (String.equal n file) then (n, b)
      else
        let c = match Codec.decode b with Ok c -> c | Error _ -> Alcotest.fail n in
        (n, Codec.encode { c with Codec.s_records = f c.Codec.s_records }))
    (Lazy.force chain)

(* ... with the payload of its [kind] record rewritten by [f]. *)
let reseal ~file ~kind f =
  rewrite ~file
    (List.map (fun (r : Codec.record) ->
         if is_kind kind r then
           { r with Codec.r_payload = Der.encode (f (Der.decode_exn r.Codec.r_payload)) }
         else r))

(* One relying party restores every mutant, so its tree-head key is made
   once; a restore that fails leaves it as it was, one that succeeds
   replaces all it restores. *)
let reader = lazy (Model.relying_party (Lazy.force model))

let disk_files disk =
  List.map
    (fun name -> (name, Rpki_persist.Disk.read disk ~name))
    (List.sort String.compare (Rpki_persist.Disk.files disk))

let restore what store =
  no_raise ("restore of " ^ what) (fun () -> Relying_party.restore (Lazy.force reader) store)

(* Restore and compaction of [files] must answer, never raise; a
   compaction that answers [Error] must leave every file as it was.  Also
   returns the store as compaction left it. *)
let restore_and_compact what files =
  let disk, store = store_of files in
  let recovery = restore what store in
  let before = disk_files disk in
  let compacted =
    no_raise ("compaction of " ^ what) (fun () -> Relying_party.compact_store store ~now:4)
  in
  (match compacted with
  | Error _ when disk_files disk <> before -> Alcotest.failf "failed compaction of %s wrote" what
  | _ -> ());
  (recovery, compacted, store)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

(* The two refusals only the vantage can make: the chain is another
   vantage's, or its head does not verify under this vantage's key. *)
let vantage_bound = function
  | Relying_party.Log_inconsistent why ->
    contains why "belongs to vantage" || contains why "signature does not verify"
  | _ -> false

(* What a restore gave back: the VRP set, the log size and the RTR serial. *)
let restored_state = function
  | Relying_party.Recovered { rc_rtr_serial; _ } ->
    let rp = Lazy.force reader in
    Some (Relying_party.vrps rp, Tlog.size (Relying_party.transparency_log rp), rc_rtr_serial)
  | Relying_party.Recovered_fresh _ -> None

(* Every record of every segment, mutated and re-sealed.  Compaction reads
   a chain through restore's own checks, so it never turns a chain restore
   refuses into one it accepts: a mutant restore accepts compacts and
   restores to the same state afterwards; one it refuses still is refused
   after compaction; and one it refuses for a reason that needs no vantage
   does not compact at all. *)
let test_chain_total () =
  let files = Lazy.force chain in
  (match restore_and_compact "the real chain" files with
  | Relying_party.Recovered _, Ok _, _ -> ()
  | r, _, _ -> Alcotest.fail ("real chain: " ^ Relying_party.recovery_to_string r));
  let diffs = ref 0 in
  List.iter
    (fun (file, bytes) ->
      let records =
        match Codec.decode bytes with Ok c -> c.Codec.s_records | Error _ -> Alcotest.fail file
      in
      List.iteri
        (fun i (r : Codec.record) ->
          let kind = r.Codec.r_kind in
          if String.equal kind "vrps-diff" then incr diffs;
          (* an observation is not DER: its bytes are mutated only *)
          let payloads =
            match Der.decode r.Codec.r_payload with
            | Ok _ -> mutants ~seed:i r.Codec.r_payload
            | Error _ -> byte_mutants ~seed:i r.Codec.r_payload
          in
          List.iteri
            (fun k p ->
              let what = Printf.sprintf "%s with %s mutant %d" file kind k in
              let mutant =
                rewrite ~file
                  (List.mapi (fun j x -> if i = j then { x with Codec.r_payload = p } else x))
              in
              let recovery, compacted, store = restore_and_compact what mutant in
              let before = restored_state recovery in
              let after = restored_state (restore (what ^ ", compacted") store) in
              match (recovery, compacted) with
              | Relying_party.Recovered _, Error e ->
                Alcotest.failf "%s restores but does not compact: %s" what e
              | Relying_party.Recovered _, Ok _ when after <> before ->
                Alcotest.failf "%s restores to another state after compaction" what
              | Relying_party.Recovered_fresh why, _ when after <> None ->
                Alcotest.failf "%s is refused (%s) but restores after compaction" what
                  (Relying_party.fresh_reason_to_string why)
              | Relying_party.Recovered_fresh why, Ok _ when not (vantage_bound why) ->
                Alcotest.failf "%s is refused (%s) but compacts" what
                  (Relying_party.fresh_reason_to_string why)
              | _ -> ())
            payloads)
        records)
    (List.filter (fun (file, _) -> String.starts_with ~prefix:"rp.seg." file) files);
  Alcotest.(check int) "the chain holds two VRP diffs" 2 !diffs

(* Restore refuses [files] for a reason naming [because], and compaction
   refuses them too. *)
let refused what ~because files =
  match restore_and_compact what files with
  | Relying_party.Recovered_fresh (Relying_party.Log_inconsistent why), Error _, _
    when contains why because -> ()
  | r, Ok _, _ ->
    Alcotest.failf "%s: compacted (restore: %s)" what (Relying_party.recovery_to_string r)
  | r, Error _, _ -> Alcotest.failf "%s: %s" what (Relying_party.recovery_to_string r)

let quad (addr, asn) = Der.Sequence [ Der.int_ addr; Der.int_ 20; Der.int_ 24; Der.int_ asn ]

(* A persisted VRP is read with the ROA decoder's bounds: an origin of
   2^32 + 17054 (which RTR's 32-bit field would carry as AS 17054) and an
   address of 2^40 (which would land on 0.0.0.0/20) are refused, in the
   base's full set and in a segment's diff alike.  So is a persisted RTR
   serial of 2^32 + 5, which the wire would carry as 5. *)
let test_vrp_bounds () =
  refused "RTR serial 2^32 + 5 in the newest meta record" ~because:"32 bits"
    (reseal ~file:"rp.seg.4" ~kind:"meta" (fun meta ->
         match children meta with
         | [ name; asn; epoch; _ ] ->
           Der.Sequence [ name; asn; epoch; Der.int_ ((1 lsl 32) + 5) ]
         | _ -> Alcotest.fail "meta record"));
  List.iter
    (fun (what, v) ->
      refused (what ^ " in the base's full set") ~because:"32 bits"
        (reseal ~file:"rp.snap" ~kind:"vrps" (fun set -> Der.Sequence (children set @ [ quad v ])));
      refused (what ^ " in a segment's diff") ~because:"32 bits"
        (reseal ~file:"rp.seg.2" ~kind:"vrps-diff" (fun _ ->
             Der.Sequence [ Der.Sequence [ quad v ]; Der.Sequence [] ])))
    [ ("origin 2^32 + 17054", ((63 lsl 24) lor (174 lsl 16) lor (16 lsl 8), (1 lsl 32) + 17054));
      ("address 2^40", (1 lsl 40, 17054)) ]

(* Diffs apply strictly: one that removes a VRP the set does not hold, or
   adds one it already holds, was not taken against that set and is
   refused.  So are a base without exactly one full set and a segment with
   anything but at most one diff. *)
let test_vrp_diffs_compose () =
  let diff ~added ~removed = Der.Sequence [ Der.Sequence added; Der.Sequence removed ] in
  (* (63.174.16.0/20-24, AS 17054) is not in the model's set *)
  let absent = quad ((63 lsl 24) lor (174 lsl 16) lor (16 lsl 8), 17054) in
  let full_set =
    match Codec.decode (List.assoc "rp.snap" (Lazy.force chain)) with
    | Ok c -> List.find (is_kind "vrps") c.Codec.s_records
    | Error _ -> Alcotest.fail "base"
  in
  let present = List.hd (children (Der.decode_exn full_set.Codec.r_payload)) in
  let in_diff f = reseal ~file:"rp.seg.2" ~kind:"vrps-diff" (fun _ -> f) in
  refused "a diff removing an absent VRP" ~because:"does not apply"
    (in_diff (diff ~added:[] ~removed:[ absent ]));
  refused "a diff adding a present VRP" ~because:"does not apply"
    (in_diff (diff ~added:[ present ] ~removed:[]));
  refused "a diff adding and removing one VRP" ~because:"does not apply"
    (in_diff (diff ~added:[ absent ] ~removed:[ absent ]));
  let diff_record =
    { Codec.r_kind = "vrps-diff"; r_payload = Der.encode (diff ~added:[] ~removed:[]) }
  in
  refused "a base without its full set" ~because:"base container"
    (rewrite ~file:"rp.snap" (List.filter (fun r -> not (is_kind "vrps" r))));
  refused "a base carrying a diff" ~because:"base container"
    (rewrite ~file:"rp.snap" (List.map (fun r -> if is_kind "vrps" r then diff_record else r)));
  refused "a segment carrying a full set" ~because:"segment carries"
    (rewrite ~file:"rp.seg.2" (List.map (fun r -> if is_kind "vrps-diff" r then full_set else r)));
  refused "a segment carrying two diffs" ~because:"segment carries"
    (rewrite ~file:"rp.seg.2" (fun rs -> rs @ [ diff_record ]))

(* A container holds one meta record, one signed head and at most one
   checkpoint: with two, "the newest" would be ambiguous. *)
let test_one_of_each () =
  List.iter
    (fun kind ->
      refused ("a segment carrying two " ^ kind ^ " records") ~because:("two " ^ kind)
        (rewrite ~file:"rp.seg.2" (fun rs -> rs @ List.filter (is_kind kind) rs)))
    [ "meta"; "sth"; "ckpt" ]

(* --- hostile sizes --- *)

let test_huge_integer () =
  let body = "\x01" ^ String.make (256 * 1024) '\x00' in
  let len = String.length body in
  let len_bytes = String.init 3 (fun i -> Char.chr ((len lsr (8 * (2 - i))) land 0xff)) in
  let enc = "\x02\x83" ^ len_bytes ^ body in
  match Der.decode enc with
  | Ok (Der.Integer n) -> Alcotest.(check int) "bits" ((8 * 256 * 1024) + 1) (Nat.num_bits n)
  | _ -> Alcotest.fail "a 256 KB INTEGER did not decode"

(* [depth] SEQUENCEs, each the only element of the one around it, every
   length in its minimal form. *)
let nested depth =
  let header len =
    let rec bytes n = if n = 0 then "" else bytes (n lsr 8) ^ String.make 1 (Char.chr (n land 0xff)) in
    if len < 0x80 then Printf.sprintf "\x30%c" (Char.chr len)
    else
      let b = bytes len in
      Printf.sprintf "\x30%c%s" (Char.chr (0x80 lor String.length b)) b
  in
  (* body lengths from the innermost level out *)
  let body = Array.make depth 0 in
  for k = 1 to depth - 1 do
    body.(k) <- String.length (header body.(k - 1)) + body.(k - 1)
  done;
  let b = Buffer.create (body.(depth - 1) + 8) in
  for k = depth - 1 downto 0 do
    Buffer.add_string b (header body.(k))
  done;
  Buffer.contents b

let test_deep_nesting () =
  (match Der.decode (nested 32) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("32 nested SEQUENCEs: " ^ e));
  match Der.decode (nested 100_000) with
  | Error e when String.starts_with ~prefix:"nesting deeper" e -> ()
  | Error e -> Alcotest.fail ("refused for another reason: " ^ e)
  | Ok _ -> Alcotest.fail "100,000 nested SEQUENCEs decoded"

let () =
  Alcotest.run "hostile"
    [ ( "objects",
        [ Alcotest.test_case "decoders total on every mutant" `Quick test_objects_decode_total;
          Alcotest.test_case "Section 6 ROA crash cases" `Quick test_roa_cases;
          Alcotest.test_case "sync survives mutants" `Quick test_sync_survives_mutants ] );
      ( "evidence",
        [ Alcotest.test_case "verify total on every mutant" `Quick test_evidence_total;
          Alcotest.test_case "256 KB modulus rejected" `Quick test_evidence_huge_modulus ] );
      ( "snapshot",
        [ Alcotest.test_case "decode and restore total on every mutant" `Quick
            test_snapshot_total;
          Alcotest.test_case "restore and compaction total on chain mutants" `Quick
            test_chain_total;
          Alcotest.test_case "persisted VRPs keep the ROA decoder's bounds" `Quick
            test_vrp_bounds;
          Alcotest.test_case "VRP diffs apply strictly" `Quick test_vrp_diffs_compose;
          Alcotest.test_case "one of each bounded record per container" `Quick
            test_one_of_each ] );
      ( "sizes",
        [ Alcotest.test_case "256 KB INTEGER decodes" `Quick test_huge_integer;
          Alcotest.test_case "100,000-deep nesting refused" `Quick test_deep_nesting ] ) ]
