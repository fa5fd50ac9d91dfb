(* Tests for SHA-256, HMAC, HMAC-DRBG and RSA against published vectors. *)

open Rpki_crypto
module Nat = Rpki_bignum.Nat

(* --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) --- *)

let sha_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb") ]

let test_sha_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) (String.sub want 0 8) want (Sha256.hexdigest msg))
    sha_vectors

let test_sha_million_a () =
  Alcotest.(check string) "10^6 x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hexdigest (String.make 1_000_000 'a'))

let test_sha_boundary_lengths () =
  (* padding boundaries: 55, 56, 63, 64, 65 bytes *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.hexdigest s)
        (Rpki_util.Hex.of_string (Sha256.finish ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 129 ]

let prop_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"chunked feed = one shot"
       QCheck.(pair (string_of_size (Gen.int_bound 300)) (int_bound 300))
       (fun (s, cut) ->
         let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
         let ctx = Sha256.init () in
         Sha256.feed ctx (String.sub s 0 cut);
         Sha256.feed ctx (String.sub s cut (String.length s - cut));
         String.equal (Sha256.finish ctx) (Sha256.digest s)))

(* The native-int kernel against the Int32 oracle ([Sha256_ref]).  Lengths
   run 0..1,100 bytes, half of them at a padding or block edge (55, 56, 63,
   64, 119, 120, a multiple of 64 or one off it).  Each input is fed in
   random pieces, empty ones included, and [digest], [digest_list] and
   [init]/[feed]/[finish] must each equal the oracle's digest. *)
let sha_edges =
  [ 55; 56; 63; 64; 119; 120 ]
  @ List.concat_map (fun m -> [ (64 * m) - 1; 64 * m; (64 * m) + 1 ]) (List.init 17 succ)

let sha_input_arb =
  let open QCheck.Gen in
  let gen =
    let* len = frequency [ (1, int_range 0 1100); (1, oneofl sha_edges) ] in
    let* s = string_size ~gen:char (return len) in
    let* cuts = list_size (int_range 0 6) (int_range 0 len) in
    return (s, List.sort compare cuts)
  in
  QCheck.make gen ~print:(fun (s, cuts) ->
      Printf.sprintf "%d bytes cut at [%s]: %s" (String.length s)
        (String.concat "; " (List.map string_of_int cuts))
        (Rpki_util.Hex.of_string s))

(* [s] split at [cuts] (sorted, repeats giving empty pieces), plus an empty
   piece at each end. *)
let pieces s cuts =
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from); "" ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  "" :: go 0 cuts

let prop_sha_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"native ints = Int32 reference" sha_input_arb
       (fun (s, cuts) ->
         let want = Sha256_ref.digest s and parts = pieces s cuts in
         let ctx = Sha256.init () in
         List.iter (Sha256.feed ctx) parts;
         String.equal (Sha256.digest s) want
         && String.equal (Sha256.digest_list parts) want
         && String.equal (Sha256.finish ctx) want))

let test_sha_oracle_1mb () =
  let rng = Rpki_util.Rng.create 0x5a256 in
  let s = String.init 1_000_000 (fun _ -> Char.chr (Rpki_util.Rng.int rng 256)) in
  let want = Sha256_ref.digest s in
  Alcotest.(check string) "digest" want (Sha256.digest s);
  Alcotest.(check string) "digest_list"
    want
    (Sha256.digest_list [ String.sub s 0 333_333; ""; String.sub s 333_333 666_667 ])

(* --- HMAC (RFC 4231) --- *)

let test_hmac_rfc4231 () =
  let check name key data want = Alcotest.(check string) name want (Hmac.hex ~key data) in
  check "case 1" (String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "case 2" "Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "case 3" (String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* case 6: key longer than a block *)
  check "case 6" (String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_hmac_equal_digest () =
  Alcotest.(check bool) "equal" true (Hmac.equal_digest "abc" "abc");
  Alcotest.(check bool) "unequal" false (Hmac.equal_digest "abc" "abd");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal_digest "abc" "abcd")

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-1" in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seed" false
    (String.equal (Drbg.generate (Drbg.create ~seed:"seed-1") 64) (Drbg.generate c 64))

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"seed-1" in
  let before = Drbg.generate a 32 in
  Drbg.reseed a ~seed:"more entropy";
  let after = Drbg.generate a 32 in
  Alcotest.(check bool) "stream changes" false (String.equal before after)

let test_drbg_requests_span_blocks () =
  (* one big request equals nothing in particular, but lengths must be exact *)
  let a = Drbg.create ~seed:"x" in
  List.iter (fun n -> Alcotest.(check int) "length" n (String.length (Drbg.generate a n)))
    [ 1; 31; 32; 33; 64; 100 ]

(* --- RSA --- *)

let keypair =
  lazy (Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"test-rsa-keypair")))

let test_rsa_roundtrip () =
  let kp = Lazy.force keypair in
  let msg = "the quick brown fox" in
  let s = Rsa.sign ~key:kp.Rsa.private_ msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify ~key:kp.Rsa.public ~signature:s msg);
  Alcotest.(check int) "signature width" (Rsa.modulus_bytes kp.Rsa.public) (String.length s)

let test_rsa_rejects_tamper () =
  let kp = Lazy.force keypair in
  let msg = "attack at dawn" in
  let s = Rsa.sign ~key:kp.Rsa.private_ msg in
  Alcotest.(check bool) "wrong msg" false (Rsa.verify ~key:kp.Rsa.public ~signature:s "attack at dusk");
  let s' = Bytes.of_string s in
  Bytes.set s' 3 (Char.chr (Char.code (Bytes.get s' 3) lxor 0x40));
  Alcotest.(check bool) "flipped bit" false
    (Rsa.verify ~key:kp.Rsa.public ~signature:(Bytes.to_string s') msg);
  Alcotest.(check bool) "truncated" false
    (Rsa.verify ~key:kp.Rsa.public ~signature:(String.sub s 0 (String.length s - 1)) msg)

let test_rsa_wrong_key () =
  let kp = Lazy.force keypair in
  let other = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"another key")) in
  let s = Rsa.sign ~key:kp.Rsa.private_ "msg" in
  Alcotest.(check bool) "other key" false (Rsa.verify ~key:other.Rsa.public ~signature:s "msg")

let test_rsa_deterministic_keygen () =
  let a = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"same")) in
  let b = Rsa.generate (Drbg.to_rng (Drbg.create ~seed:"same")) in
  Alcotest.(check bool) "same key" true (Rsa.equal_public a.Rsa.public b.Rsa.public);
  Alcotest.(check string) "same key id" (Rsa.key_id a.Rsa.public) (Rsa.key_id b.Rsa.public)

(* A key's id is made with the key: SHA-256 of "len:n:len:e" over the
   minimal big-endian bytes.  The same id comes back when the key is decoded
   out of a certificate or out of an evidence bundle. *)
let test_rsa_key_id () =
  let pub = (Lazy.force keypair).Rsa.public in
  let nb = Nat.to_bytes_be pub.Rsa.n and eb = Nat.to_bytes_be pub.Rsa.e in
  let want =
    Sha256.digest (Printf.sprintf "%d:%s:%d:%s" (String.length nb) nb (String.length eb) eb)
  in
  Alcotest.(check string) "generated key" want (Rsa.key_id pub);
  let module Cert = Rpki_core.Cert in
  let cert =
    Cert.self_signed ~key:(Lazy.force keypair) ~subject:"TA" ~resources:Rpki_core.Resources.empty
      ~not_before:0 ~not_after:10 ()
  in
  (match Cert.decode (Cert.encode cert) with
  | Ok c -> Alcotest.(check string) "after a certificate round trip" want (Cert.key_id c)
  | Error e -> Alcotest.fail e);
  let module Log = Rpki_transparency.Log in
  let module Gossip = Rpki_repo.Gossip in
  let side vantage =
    { Gossip.att_vantage = vantage;
      att_obs =
        { Log.ob_uri = "rsync://ca/"; ob_serial = 1; ob_manifest_hash = ""; ob_vrp_hash = "";
          ob_snapshot_fp = ""; ob_at = 1 };
      att_index = 0;
      att_head =
        { Log.sh_head = { Log.h_log_id = vantage; h_size = 1; h_root = ""; h_at = 1 };
          sh_sig = "" };
      att_proof = [] }
  in
  let alarm =
    Gossip.Fork { fork_uri = "rsync://ca/"; fork_serial = 1; left = side "a"; right = side "b" }
  in
  let bundle = Rpki_repo.Evidence.export ~key_of:(fun _ -> Some pub) alarm in
  match Result.bind bundle Rpki_repo.Evidence.import with
  | Ok (_, keys) ->
    Alcotest.(check (list string)) "after an evidence round trip" [ want; want ]
      (List.map (fun (_, k) -> Rsa.key_id k) keys)
  | Error e -> Alcotest.fail e

let test_rsa_min_bits () =
  Alcotest.(check bool) "too small raises" true
    (try
       ignore (Rsa.generate ~bits:256 (Drbg.to_rng (Drbg.create ~seed:"small")));
       false
     with Invalid_argument _ -> true)

(* Keys of 512 and 496, 521, 640 bits: odd widths give primes of unequal
   size (|q| = |p| + 1).  RSA signatures are unique for a key and a
   message, so one that verifies is the full-width [em^d mod n]. *)
let keys_of_several_widths =
  lazy
    (Lazy.force keypair
    :: List.map
         (fun bits -> Rsa.generate ~bits (Drbg.to_rng (Drbg.create ~seed:"rsa-widths")))
         [ 496; 521; 640 ])

let prop_rsa_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"sign/verify roundtrip"
       QCheck.(string_of_size (Gen.int_bound 200))
       (fun msg ->
         List.for_all
           (fun kp ->
             Rsa.verify ~key:kp.Rsa.public ~signature:(Rsa.sign ~key:kp.Rsa.private_ msg) msg)
           (Lazy.force keys_of_several_widths)))

(* Key generation against the pair loop that ran all 40 rounds on every
   prime it found ([Keygen_ref]): from the same DRBG seed, the same modulus,
   the same signature on a fixed message, and the stream left at the same
   place.  About 44% of the reference's pairs are thrown away (mostly a
   modulus one bit short), so a key from a seed usually covers a discarded
   pair as well as the kept one. *)
let keygen_matches_reference ~bits seed =
  let ours = Drbg.to_rng (Drbg.create ~seed) and theirs = Drbg.to_rng (Drbg.create ~seed) in
  let kp = Rsa.generate ~bits ours and want = Keygen_ref.rsa_generate ~bits theirs in
  let msg = "RPKI signed object, keygen reference" in
  Nat.equal kp.Rsa.public.Rsa.n want.Keygen_ref.n
  && String.equal (Rsa.sign ~key:kp.Rsa.private_ msg) (Keygen_ref.sign want msg)
  && Rpki_util.Rng.bits ours 62 = Rpki_util.Rng.bits theirs 62

let prop_keygen_reference ~name ~count widths =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(string_of_size (Gen.int_bound 24))
       (fun seed -> List.for_all (fun bits -> keygen_matches_reference ~bits seed) widths))

(* This digest of one signature, taken from the full-width [em^d mod n]
   signer, pins the bytes every certificate, ROA, manifest, CRL and tree
   head carries. *)
let test_rsa_known_answer () =
  let kp = Lazy.force keypair in
  Alcotest.(check string) "sha256 of the signature"
    "4a80efcaa55cf2ad49ffa2ac85e28af4abcafe737d4b61c7aced6824137a2cd4"
    (Sha256.hexdigest (Rsa.sign ~key:kp.Rsa.private_ "RPKI signed object, known-answer"))

(* Key decoders accept any integers.  A modulus too narrow for the padded
   digest rejects every signature of its width instead of raising. *)
let test_rsa_narrow_modulus () =
  List.iter
    (fun bits ->
      let n = if bits = 1 then Nat.one else Nat.succ (Nat.shift_left Nat.one (bits - 1)) in
      let key = Rsa.public ~n ~e:(Nat.of_int 65537) in
      let len = Rsa.modulus_bytes key in
      List.iter
        (fun s ->
          Alcotest.(check bool) (Printf.sprintf "%d-bit modulus" bits) false
            (Rsa.verify ~key ~signature:(Nat.to_bytes_be_padded s len) "msg"))
        [ Nat.zero; Nat.pred n ])
    [ 1; 8; 256; 488 ]

(* --- Domains --- *)

(* SHA-256, HMAC and a DRBG stream computed on two Domains at once must equal
   the sequential results: no hashing state is shared between contexts. *)
let test_two_domains () =
  let inputs =
    Array.init 2000 (fun i -> String.make (i mod 150) (Char.chr (i land 0xff)) ^ string_of_int i)
  in
  let work () =
    let drbg = Drbg.create ~seed:"two domains" in
    Array.map
      (fun s -> (Sha256.digest s, Hmac.sha256 ~key:s "message", Drbg.generate drbg 48))
      inputs
  in
  let expect = work () in
  let there = Domain.spawn work in
  let here = work () in
  let there = Domain.join there in
  let wrong got =
    Array.fold_left ( + ) 0 (Array.map2 (fun a b -> if a = b then 0 else 1) expect got)
  in
  Alcotest.(check int) "wrong results on this Domain" 0 (wrong here);
  Alcotest.(check int) "wrong results on the other Domain" 0 (wrong there)

(* Two Domains verifying at once: every call is counted.  A 20-bit
   modulus is refused before any exponentiation, so the calls are all
   counter traffic. *)
let test_verification_count_two_domains () =
  let key = Rsa.public ~n:(Nat.of_int 0xfffff) ~e:(Nat.of_int 65537) in
  let calls = 1_000_000 in
  let work () =
    for _ = 1 to calls do
      ignore (Rsa.verify ~key ~signature:"sig" "msg")
    done
  in
  let before = Rsa.verification_count () in
  let there = Domain.spawn work in
  work ();
  Domain.join there;
  Alcotest.(check int) "verifications counted" (2 * calls)
    (Rsa.verification_count () - before)

(* RSA on two Domains at once: each exponentiation keeps its Montgomery
   scratch to itself.  64 (key, message) pairs, each signed, verified and
   put through one full-width [pow_mod] on two Domains, give the results
   of a sequential [Array.map]. *)
let test_rsa_two_domains () =
  let keys =
    Array.init 8 (fun i ->
        Rsa.generate (Drbg.to_rng (Drbg.create ~seed:(Printf.sprintf "two-domain-key-%d" i))))
  in
  let pairs = Array.init 64 (fun i -> (keys.(i mod 8), Printf.sprintf "message %d" i)) in
  let work ((kp : Rsa.keypair), msg) =
    let signature = Rsa.sign ~key:kp.Rsa.private_ msg in
    let n = kp.Rsa.public.Rsa.n in
    ( signature,
      Rsa.verify ~key:kp.Rsa.public ~signature msg,
      Nat.to_hex
        (Nat.pow_mod ~base:(Nat.of_bytes_be (Sha256.digest msg)) ~exp:(Nat.pred n) ~modulus:n) )
  in
  Alcotest.(check (array (triple string bool string)))
    "two Domains = sequential" (Array.map work pairs)
    (Rpki_util.Par.map ~domains:2 work pairs)

let test_par_map_is_array_map () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let a = Array.init n (fun i -> (i * 7919) mod 101) in
          let f x = Sha256.hexdigest (string_of_int x) in
          Alcotest.(check (array string))
            (Printf.sprintf "%d Domains, length %d" domains n)
            (Array.map f a) (Rpki_util.Par.map ~domains f a))
        [ 0; 1; 100 ])
    [ 1; 2; 4 ]

(* The lowest failing index wins, as with [Array.map], and no call of [f]
   is still running when the exception reaches the caller. *)
let test_par_map_raises () =
  List.iter
    (fun domains ->
      let running = Atomic.make 0 in
      let f i =
        Atomic.incr running;
        Fun.protect
          ~finally:(fun () -> Atomic.decr running)
          (fun () ->
            (* uneven work, so helpers are mid-call when a failure lands *)
            ignore (Sha256.digest (String.make ((i mod 5) * 20_000) 'x'));
            if i mod 7 = 3 then failwith (string_of_int i);
            i)
      in
      Alcotest.check_raises
        (Printf.sprintf "%d Domains" domains)
        (Failure "3")
        (fun () -> ignore (Rpki_util.Par.map ~domains f (Array.init 100 Fun.id)));
      Alcotest.(check int) "every helper joined" 0 (Atomic.get running))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "padding boundaries" `Quick test_sha_boundary_lengths;
          prop_incremental;
          prop_sha_oracle;
          Alcotest.test_case "1 MB = Int32 reference" `Quick test_sha_oracle_1mb ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "constant-time equality" `Quick test_hmac_equal_digest ] );
      ( "drbg",
        [ Alcotest.test_case "determinism" `Quick test_drbg_deterministic;
          Alcotest.test_case "reseed" `Quick test_drbg_reseed;
          Alcotest.test_case "request sizes" `Quick test_drbg_requests_span_blocks ] );
      ( "rsa",
        [ Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "tamper rejection" `Quick test_rsa_rejects_tamper;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          Alcotest.test_case "deterministic keygen" `Quick test_rsa_deterministic_keygen;
          Alcotest.test_case "key id made with the key" `Quick test_rsa_key_id;
          Alcotest.test_case "minimum modulus" `Quick test_rsa_min_bits;
          Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
          Alcotest.test_case "narrow modulus rejects" `Quick test_rsa_narrow_modulus;
          prop_keygen_reference ~name:"keygen = reference, 496-640 bits" ~count:25
            [ 496; 512; 521; 640 ];
          prop_keygen_reference ~name:"keygen = reference, 1024 bits" ~count:3 [ 1024 ];
          prop_rsa_roundtrip ] );
      ( "domains",
        [ Alcotest.test_case "hashing on two Domains at once" `Quick test_two_domains;
          Alcotest.test_case "verifications counted on two Domains" `Quick
            test_verification_count_two_domains;
          Alcotest.test_case "RSA on two Domains at once" `Quick test_rsa_two_domains;
          Alcotest.test_case "Par.map equals Array.map" `Quick test_par_map_is_array_map;
          Alcotest.test_case "Par.map re-raises the lowest index" `Quick test_par_map_raises ] ) ]
