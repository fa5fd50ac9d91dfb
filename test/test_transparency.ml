(* The transparency log's cryptographic core, tested as invariants: for
   arbitrary append sequences every inclusion and consistency proof
   verifies, and any single tampered bit — in the leaf, the proof, or the
   claimed roots — makes verification fail.  Plus the log layer on top:
   canonical encoding round-trips, per-point dedup, signed heads. *)

open Rpki_transparency
module Sha256 = Rpki_crypto.Sha256

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 5000)

(* A deterministic batch of distinct leaves for a seed. *)
let leaves_of_seed seed =
  let rng = Rpki_util.Rng.create seed in
  let n = 1 + Rpki_util.Rng.int rng 64 in
  List.init n (fun i -> Printf.sprintf "leaf-%d-%d-%d" seed i (Rpki_util.Rng.int rng 1000))

let tree_of leaves =
  let t = Merkle.create () in
  List.iter (fun l -> ignore (Merkle.add t l)) leaves;
  t

(* Flip one bit of byte [i] (mod length). *)
let flip s i =
  let b = Bytes.of_string s in
  let i = i mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* --- Merkle unit tests --- *)

let test_empty_and_singleton () =
  let t = Merkle.create () in
  Alcotest.(check string) "empty root = H(\"\")" (Sha256.digest "") (Merkle.root t);
  ignore (Merkle.add t "a");
  Alcotest.(check string) "singleton root = leaf hash" (Merkle.leaf_hash "a") (Merkle.root t);
  ignore (Merkle.add t "b");
  let expect = Sha256.digest_list [ "\x01"; Merkle.leaf_hash "a"; Merkle.leaf_hash "b" ] in
  Alcotest.(check string) "two-leaf root = H(1||l||r)" expect (Merkle.root t)

let test_root_at_is_past_head () =
  let leaves = leaves_of_seed 42 in
  let t = tree_of leaves in
  List.iteri
    (fun i _ ->
      let prefix = tree_of (List.filteri (fun j _ -> j <= i) leaves) in
      Alcotest.(check string)
        (Printf.sprintf "root_at %d" (i + 1))
        (Merkle.root prefix)
        (Merkle.root_at t ~size:(i + 1)))
    leaves

(* --- Merkle properties --- *)

(* Every leaf of every tree has a verifying inclusion proof, under the full
   tree and under every past head covering it. *)
let prop_inclusion seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 7) in
  List.for_all
    (fun index ->
      let size = index + 1 + Rpki_util.Rng.int rng (n - index) in
      let proof = Merkle.inclusion_proof t ~index ~size in
      Merkle.verify_inclusion ~leaf:(List.nth leaves index) ~index ~size
        ~root:(Merkle.root_at t ~size) proof)
    (List.init n (fun i -> i))

(* Every pair of heads of one log is consistency-provable. *)
let prop_consistency seed =
  let t = tree_of (leaves_of_seed seed) in
  let n = Merkle.size t in
  List.for_all
    (fun old_size ->
      let proof = Merkle.consistency_proof t ~old_size ~size:n in
      Merkle.verify_consistency ~old_size ~old_root:(Merkle.root_at t ~size:old_size) ~size:n
        ~root:(Merkle.root t) proof)
    (List.init n (fun i -> i + 1))

(* Tampering with the leaf, any single proof hash, or the root breaks
   inclusion verification. *)
let prop_inclusion_tamper_fails seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 11) in
  let index = Rpki_util.Rng.int rng n in
  let leaf = List.nth leaves index in
  let root = Merkle.root t in
  let proof = Merkle.inclusion_proof t ~index ~size:n in
  let ok tampered_leaf tampered_root tampered_proof =
    Merkle.verify_inclusion ~leaf:tampered_leaf ~index ~size:n ~root:tampered_root
      tampered_proof
  in
  if not (ok leaf root proof) then QCheck.Test.fail_reportf "honest proof rejected (seed %d)" seed;
  if ok (flip leaf (Rpki_util.Rng.int rng 99)) root proof then
    QCheck.Test.fail_reportf "tampered leaf accepted (seed %d)" seed;
  if ok leaf (flip root (Rpki_util.Rng.int rng 99)) proof then
    QCheck.Test.fail_reportf "tampered root accepted (seed %d)" seed;
  List.iteri
    (fun i _ ->
      let tampered = List.mapi (fun j h -> if i = j then flip h 5 else h) proof in
      if ok leaf root tampered then
        QCheck.Test.fail_reportf "tampered proof hash %d accepted (seed %d)" i seed)
    proof;
  true

(* A forked history — one leaf changed below the old head — is not
   consistency-provable against the honest old root. *)
let prop_consistency_tamper_fails seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 13) in
  let old_size = 1 + Rpki_util.Rng.int rng n in
  let old_root = Merkle.root_at t ~size:old_size in
  let proof = Merkle.consistency_proof t ~old_size ~size:n in
  let victim = Rpki_util.Rng.int rng old_size in
  let forked = tree_of (List.mapi (fun i l -> if i = victim then flip l 3 else l) leaves) in
  let forked_proof = Merkle.consistency_proof forked ~old_size ~size:n in
  if
    Merkle.verify_consistency ~old_size ~old_root ~size:n ~root:(Merkle.root forked)
      forked_proof
  then QCheck.Test.fail_reportf "forked history passed consistency (seed %d)" seed;
  if not (Merkle.verify_consistency ~old_size ~old_root ~size:n ~root:(Merkle.root t) proof)
  then QCheck.Test.fail_reportf "honest consistency rejected (seed %d)" seed;
  true

(* --- the uncached reference: RFC 6962 section 2.1, over leaf hashes --- *)

let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> []
let rec drop k l = match l with _ :: r when k > 0 -> drop (k - 1) r | _ -> l
let split n = let k = ref 1 in while 2 * !k < n do k := 2 * !k done; !k
let node l r = Sha256.digest_list [ "\x01"; l; r ]

let rec ref_mth = function
  | [] -> Sha256.digest ""
  | [ h ] -> h
  | d -> let k = split (List.length d) in node (ref_mth (take k d)) (ref_mth (drop k d))

(* PATH(m, D[n]) *)
let rec ref_path m d =
  if List.length d <= 1 then []
  else
    let k = split (List.length d) in
    if m < k then ref_path m (take k d) @ [ ref_mth (drop k d) ]
    else ref_path (m - k) (drop k d) @ [ ref_mth (take k d) ]

(* SUBPROOF(m, D[n], b); PROOF(m, D[n]) is SUBPROOF(m, D[n], true) *)
let rec ref_subproof m d b =
  let n = List.length d in
  if m = n then if b then [] else [ ref_mth d ]
  else
    let k = split n in
    if m <= k then ref_subproof m (take k d) b @ [ ref_mth (drop k d) ]
    else ref_subproof (m - k) (drop k d) false @ [ ref_mth (take k d) ]

(* Tree sizes in 0..300, half of them a power of two or one off it. *)
let oracle_arb =
  QCheck.make ~print:QCheck.Print.(pair int int)
    QCheck.Gen.(
      pair
        (frequency
           [ (1, int_range 0 300);
             (1, map2 (fun j d -> (1 lsl j) + d) (int_range 0 8) (int_range (-1) 1)) ])
        (int_bound 10_000))

(* The cached tree against the reference.  The tree grows one leaf at a
   time and its root is checked at every size on the way, twice (the second
   answer is the kept one) and once more after a [root_at] of an older
   size; then, on the grown tree, every past size's root, one inclusion
   proof and one consistency proof. *)
let prop_oracle (n, seed) =
  let rng = Rpki_util.Rng.create seed in
  let t = Merkle.create () in
  let hashes = ref [] in
  for i = 0 to n - 1 do
    let leaf = Printf.sprintf "leaf-%d-%d" seed i in
    ignore (Merkle.add t leaf);
    hashes := Sha256.digest_list [ "\x00"; leaf ] :: !hashes;
    let want = ref_mth (List.rev !hashes) in
    if not (String.equal (Merkle.root t) want) then
      QCheck.Test.fail_reportf "root at size %d while growing" (i + 1);
    if not (String.equal (Merkle.root t) want) then
      QCheck.Test.fail_reportf "root asked again at size %d" (i + 1);
    let older = Rpki_util.Rng.int rng (i + 1) in
    if not (String.equal (Merkle.root_at t ~size:older) (ref_mth (take older (List.rev !hashes))))
    then QCheck.Test.fail_reportf "root_at %d while growing at size %d" older (i + 1);
    if not (String.equal (Merkle.root t) want) then
      QCheck.Test.fail_reportf "root after root_at %d at size %d" older (i + 1)
  done;
  let d = List.rev !hashes in
  for size = 0 to n do
    let prefix = take size d in
    if not (String.equal (Merkle.root_at t ~size) (ref_mth prefix)) then
      QCheck.Test.fail_reportf "root_at %d of %d" size n;
    if size > 0 then begin
      let index = Rpki_util.Rng.int rng size in
      if Merkle.inclusion_proof t ~index ~size <> ref_path index prefix then
        QCheck.Test.fail_reportf "inclusion_proof %d at %d of %d" index size n;
      let old_size = 1 + Rpki_util.Rng.int rng size in
      if Merkle.consistency_proof t ~old_size ~size <> ref_subproof old_size prefix true then
        QCheck.Test.fail_reportf "consistency_proof %d -> %d of %d" old_size size n
    end
  done;
  true

(* --- the verdict table --- *)

(* One table answers a shuffled batch of honest and tampered checks, each
   asked twice, and must return what the uncached verifier returns every
   time.  Tampering: a flipped leaf or root byte, index or size off by one,
   and a proof node flipped, dropped or added. *)
let prop_verdicts seed =
  let leaves = leaves_of_seed seed in
  let t = tree_of leaves in
  let n = Merkle.size t in
  let rng = Rpki_util.Rng.create (seed * 17) in
  let pick l = List.nth l (Rpki_util.Rng.int rng (List.length l)) in
  let tamper_proof p =
    let k = Rpki_util.Rng.int rng (List.length p + 1) in
    pick
      [ p;
        List.mapi (fun i h -> if i = k then flip h 7 else h) p;
        List.filteri (fun i _ -> i <> k) p;
        p @ [ Sha256.digest "extra" ] ]
  in
  let checks =
    List.concat_map
      (fun _ ->
        let size = 1 + Rpki_util.Rng.int rng n in
        let index = Rpki_util.Rng.int rng size in
        let leaf = List.nth leaves index and root = Merkle.root_at t ~size in
        let proof = Merkle.inclusion_proof t ~index ~size in
        let old_size = 1 + Rpki_util.Rng.int rng size in
        let old_root = Merkle.root_at t ~size:old_size in
        let cproof = Merkle.consistency_proof t ~old_size ~size in
        let d = pick [ -1; 1 ] in
        let incl leaf index size root proof = `Incl (leaf, index, size, root, proof) in
        let cons old_size old_root size root proof =
          `Cons (old_size, old_root, size, root, proof)
        in
        [ incl leaf index size root proof;
          incl (flip leaf (Rpki_util.Rng.int rng 99)) index size root proof;
          incl leaf (index + d) size root proof;
          incl leaf index (size + d) root proof;
          incl leaf index size (flip root 3) proof;
          incl leaf index size root (tamper_proof proof);
          cons old_size old_root size root cproof;
          cons (old_size + d) old_root size root cproof;
          cons old_size old_root (size + d) root cproof;
          cons old_size (flip old_root 9) size root cproof;
          cons old_size old_root size root (tamper_proof cproof) ])
      (List.init 8 Fun.id)
  in
  let batch = Rpki_util.Rng.shuffle rng (checks @ checks) in
  let table = Merkle.Verdicts.create () in
  List.iter
    (function
      | `Incl (leaf, index, size, root, proof) ->
        if
          Merkle.Verdicts.verify_inclusion table ~leaf ~index ~size ~root proof
          <> Merkle.verify_inclusion ~leaf ~index ~size ~root proof
        then QCheck.Test.fail_reportf "inclusion %d of %d: table disagrees" index size
      | `Cons (old_size, old_root, size, root, proof) ->
        if
          Merkle.Verdicts.verify_consistency table ~old_size ~old_root ~size ~root proof
          <> Merkle.verify_consistency ~old_size ~old_root ~size ~root proof
        then QCheck.Test.fail_reportf "consistency %d -> %d: table disagrees" old_size size)
    batch;
  (* every check was asked twice, so at most half of them ran *)
  Merkle.Verdicts.computed table <= List.length checks

(* --- Log layer --- *)

let obs ?(at = 1) ?(serial = 6) ?(uri = "rsync://a/repo") tag =
  { Log.ob_uri = uri; ob_serial = serial; ob_manifest_hash = Sha256.digest ("m" ^ tag);
    ob_vrp_hash = Sha256.digest ("v" ^ tag); ob_snapshot_fp = Sha256.digest ("f" ^ tag);
    ob_at = at }

let prop_observation_roundtrip seed =
  let rng = Rpki_util.Rng.create seed in
  let ob =
    obs
      ~at:(Rpki_util.Rng.int rng 1000)
      ~serial:(Rpki_util.Rng.int rng 1000)
      ~uri:(Printf.sprintf "rsync://host%d/repo:with\nodd\x00chars" seed)
      (string_of_int (Rpki_util.Rng.int rng 100000))
  in
  (* the encoding writes its length digits by hand; they must be what
     "%08d" writes *)
  let field x = Printf.sprintf "%08d:%s" (String.length x) x in
  let reference =
    "rpki-obs-v1\n"
    ^ String.concat ""
        (List.map field
           [ ob.Log.ob_uri; string_of_int ob.Log.ob_serial; ob.Log.ob_manifest_hash;
             ob.Log.ob_vrp_hash; ob.Log.ob_snapshot_fp; string_of_int ob.Log.ob_at ])
  in
  String.equal (Log.encode_observation ob) reference
  &&
  match Log.decode_observation (Log.encode_observation ob) with
  | Some ob' -> ob = ob'
  | None -> false

(* --- hostile bytes for the decoders --- *)

let encoding_gen =
  QCheck.Gen.(
    let field = string_size ~gen:char (int_bound 40) in
    let int = oneof [ int_bound 1000; int_range (-5) 5; return max_int; return min_int ] in
    oneof
      [ map3
          (fun (ob_uri, ob_manifest_hash) (ob_vrp_hash, ob_snapshot_fp) (ob_serial, ob_at) ->
            Log.encode_observation
              { Log.ob_uri; ob_serial; ob_manifest_hash; ob_vrp_hash; ob_snapshot_fp; ob_at })
          (pair field field) (pair field field) (pair int int);
        map3
          (fun h_log_id h_root (h_size, h_at) ->
            Log.encode_head { Log.h_log_id; h_size; h_root; h_at })
          field field (pair int int) ])

(* Where each length field of a valid encoding starts (both magics are
   twelve bytes). *)
let length_offsets s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else go (pos + 9 + int_of_string (String.sub s pos 8)) (pos :: acc)
  in
  go (String.length "rpki-obs-v1\n") []

(* Random bytes, truncations and byte flips of valid encodings, and valid
   encodings with one length field rewritten in a form [int_of_string]
   reads but [encode_field] never writes. *)
let hostile_log_gen =
  QCheck.Gen.(
    frequency
      [ (1, string_size (int_bound 60));
        (1, map (fun s -> "rpki-obs-v1\n" ^ s) (string_size (int_bound 60)));
        (3, map2 (fun s k -> String.sub s 0 (k mod (String.length s + 1))) encoding_gen nat);
        ( 3,
          map2
            (fun s flips ->
              let b = Bytes.of_string s in
              List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
              Bytes.to_string b)
            encoding_gen
            (list_size (int_range 1 3) (pair nat char)) );
        ( 3,
          map3
            (fun s k form ->
              let offsets = length_offsets s in
              let pos = List.nth offsets (k mod List.length offsets) in
              String.sub s 0 pos ^ form ^ String.sub s (pos + 8) (String.length s - pos - 8))
            encoding_gen nat
            (oneofl [ "-0000001"; "+0000001"; "0x000001"; "0o000001"; "0000_001" ]) ) ])

let prop_decoders_hostile =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000
       ~name:"Log decoders never raise and accept only canonical encodings"
       (QCheck.make ~print:(Printf.sprintf "%S") hostile_log_gen)
       (fun s ->
         (match Log.decode_observation s with
         | Some o -> String.equal (Log.encode_observation o) s
         | None -> true)
         &&
         match Log.decode_head s with
         | Some h -> String.equal (Log.encode_head h) s
         | None -> true))

let test_append_dedup () =
  let l = Log.create ~log_id:"rp0" in
  (match Log.append l (obs "x") with
  | `Appended 0 -> ()
  | _ -> Alcotest.fail "first append");
  (* same state re-observed later: deduped *)
  (match Log.append l (obs ~at:9 "x") with
  | `Unchanged -> ()
  | _ -> Alcotest.fail "re-observation must dedup");
  (* changed state at the same serial: appended (the fork primitive) *)
  (match Log.append l (obs ~at:9 "y") with
  | `Appended 1 -> ()
  | _ -> Alcotest.fail "changed state must append");
  Alcotest.(check int) "size" 2 (Log.size l);
  (* find returns the first record under the conflict key *)
  match Log.find l ~uri:"rsync://a/repo" ~serial:6 with
  | Some (0, ob) -> Alcotest.(check int) "first at" 1 ob.Log.ob_at
  | _ -> Alcotest.fail "find"

let test_signed_head () =
  let l = Log.create ~log_id:"rp0" in
  ignore (Log.append l (obs "x"));
  let rng = Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed:"test-sth") in
  let kp = Rpki_crypto.Rsa.generate ~bits:512 rng in
  let sth = Log.sign_head ~key:kp.Rpki_crypto.Rsa.private_ (Log.head l ~at:3) in
  Alcotest.(check bool) "signature verifies" true
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public sth);
  let bad = { sth with Log.sh_sig = flip sth.Log.sh_sig 4 } in
  Alcotest.(check bool) "tampered signature fails" false
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public bad);
  let forged =
    { sth with Log.sh_head = { sth.Log.sh_head with Log.h_size = 99 } }
  in
  Alcotest.(check bool) "tampered head fails" false
    (Log.verify_head ~key:kp.Rpki_crypto.Rsa.public forged)

let test_head_consistency_across_appends () =
  let l = Log.create ~log_id:"rp0" in
  let heads = ref [] in
  List.iter
    (fun i ->
      ignore (Log.append l (obs ~serial:i (string_of_int i)));
      heads := Log.head l ~at:i :: !heads)
    [ 1; 2; 3; 4; 5; 6; 7 ];
  let heads = List.rev !heads in
  let last = List.nth heads (List.length heads - 1) in
  List.iter
    (fun (old_head : Log.head) ->
      let proof = Log.consistency_proof l ~old_size:old_head.Log.h_size ~size:last.Log.h_size in
      Alcotest.(check bool)
        (Printf.sprintf "head %d -> head %d" old_head.Log.h_size last.Log.h_size)
        true
        (Log.verify_head_consistency ~old_head ~new_head:last proof))
    heads;
  (* a head from a different log never checks out *)
  let other = Log.create ~log_id:"rp1" in
  ignore (Log.append other (obs "1"));
  Alcotest.(check bool) "foreign log id rejected" false
    (Log.verify_head_consistency
       ~old_head:(Log.head other ~at:1)
       ~new_head:last
       (Log.consistency_proof l ~old_size:1 ~size:last.Log.h_size))

let test_observation_inclusion_via_head () =
  let l = Log.create ~log_id:"rp0" in
  List.iter (fun i -> ignore (Log.append l (obs ~serial:i (string_of_int i)))) [ 1; 2; 3; 4; 5 ];
  let head = Log.head l ~at:9 in
  List.iteri
    (fun i ob ->
      let proof = Log.inclusion_proof l ~index:i ~size:head.Log.h_size in
      Alcotest.(check bool) (Printf.sprintf "inclusion %d" i) true
        (Log.verify_observation_inclusion ob ~index:i ~head proof);
      let lie = { ob with Log.ob_vrp_hash = Sha256.digest "not-this" } in
      Alcotest.(check bool) (Printf.sprintf "forged observation %d" i) false
        (Log.verify_observation_inclusion lie ~index:i ~head proof))
    (Log.observations l)

let prop c n p = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:c ~name:n seed_gen p)

let () =
  Alcotest.run "transparency"
    [ ("merkle",
       [ Alcotest.test_case "empty and small trees" `Quick test_empty_and_singleton;
         Alcotest.test_case "root_at = past head" `Quick test_root_at_is_past_head;
         prop 30 "inclusion proofs verify for arbitrary appends" prop_inclusion;
         prop 30 "consistency proofs verify for arbitrary heads" prop_consistency;
         prop 30 "any inclusion tamper fails" prop_inclusion_tamper_fails;
         prop 30 "forked history fails consistency" prop_consistency_tamper_fails;
         QCheck_alcotest.to_alcotest
           (QCheck.Test.make ~count:20 ~name:"cached tree = uncached RFC 6962 reference"
              oracle_arb prop_oracle);
         prop 100 "verdict table = uncached verifiers, tampered inputs included"
           prop_verdicts ]);
      ("log",
       [ prop 50 "observation encoding round-trips" prop_observation_roundtrip;
         prop_decoders_hostile;
         Alcotest.test_case "append dedups unchanged states" `Quick test_append_dedup;
         Alcotest.test_case "signed heads" `Quick test_signed_head;
         Alcotest.test_case "head consistency across appends" `Quick
           test_head_consistency_across_appends;
         Alcotest.test_case "observation inclusion via head" `Quick
           test_observation_inclusion_via_head ]) ]
