(* Tests for the arbitrary-precision arithmetic substrate. *)

open Rpki_bignum

let nat = Alcotest.testable (fun fmt n -> Nat.pp fmt n) Nat.equal

(* A generator of naturals with up to [bits] bits, built from a seed so
   shrinking stays meaningful. *)
let gen_nat_bits bits =
  QCheck.Gen.(
    map2
      (fun seed b ->
        let rng = Rpki_util.Rng.create seed in
        Nat.random_bits rng ~bits:(1 + (b mod bits)))
      int (int_bound (bits - 1)))

let arb_nat = QCheck.make ~print:Nat.to_decimal (gen_nat_bits 256)
let arb_nat_big = QCheck.make ~print:Nat.to_decimal (gen_nat_bits 2048)

let check_eq = Alcotest.check nat

(* --- unit tests --- *)

let test_of_to_int () =
  List.iter
    (fun i ->
      Alcotest.(check (option int)) (Printf.sprintf "roundtrip %d" i) (Some i)
        (Nat.to_int_opt (Nat.of_int i)))
    [ 0; 1; 2; 1073741823; 1073741824; 4611686018427387903 ];
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_add_sub () =
  let a = Nat.of_decimal "999999999999999999999999999" in
  let b = Nat.of_decimal "1" in
  check_eq "add carries" (Nat.of_decimal "1000000000000000000000000000") (Nat.add a b);
  check_eq "sub borrows" a (Nat.sub (Nat.add a b) b);
  check_eq "a - a = 0" Nat.zero (Nat.sub a a);
  Alcotest.check_raises "negative result" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul_known () =
  check_eq "squares"
    (Nat.of_decimal "15241578753238836750495351562536198787501905199875019052100")
    (Nat.mul
       (Nat.of_decimal "123456789012345678901234567890")
       (Nat.of_decimal "123456789012345678901234567890"));
  check_eq "by zero" Nat.zero (Nat.mul (Nat.of_decimal "99999") Nat.zero);
  check_eq "by one" (Nat.of_int 42) (Nat.mul (Nat.of_int 42) Nat.one)

let test_divmod_edges () =
  let a = Nat.of_decimal "987654321098765432109876543210" in
  let q, r = Nat.divmod a Nat.one in
  check_eq "div by 1: q" a q;
  check_eq "div by 1: r" Nat.zero r;
  let q, r = Nat.divmod a a in
  check_eq "self div: q" Nat.one q;
  check_eq "self div: r" Nat.zero r;
  let q, r = Nat.divmod Nat.zero a in
  check_eq "zero dividend: q" Nat.zero q;
  check_eq "zero dividend: r" Nat.zero r;
  let q, r = Nat.divmod (Nat.of_int 7) (Nat.of_int 9) in
  check_eq "smaller dividend: q" Nat.zero q;
  check_eq "smaller dividend: r" (Nat.of_int 7) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero))

(* A value that exercises the Knuth-D "add back" path has a quotient digit
   estimate that is one too large; this classic pair does. *)
let test_divmod_addback () =
  let b30 = Nat.shift_left Nat.one 30 in
  let v = Nat.add (Nat.shift_left (Nat.sub b30 Nat.one) 30) (Nat.sub b30 Nat.one) in
  let u = Nat.sub (Nat.mul v (Nat.sub b30 Nat.one)) Nat.one in
  let q, r = Nat.divmod u v in
  check_eq "reconstruct" u (Nat.add (Nat.mul q v) r);
  Alcotest.(check bool) "r < v" true (Nat.lt r v)

let test_shift () =
  check_eq "left 0" (Nat.of_int 5) (Nat.shift_left (Nat.of_int 5) 0);
  check_eq "left 1" (Nat.of_int 10) (Nat.shift_left (Nat.of_int 5) 1);
  check_eq "left 100 right 100" (Nat.of_int 5)
    (Nat.shift_right (Nat.shift_left (Nat.of_int 5) 100) 100);
  check_eq "right beyond" Nat.zero (Nat.shift_right (Nat.of_int 5) 64);
  check_eq "cross limb" (Nat.shift_left Nat.one 30) (Nat.shift_left Nat.one 30)

let test_bits () =
  Alcotest.(check int) "num_bits 0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "num_bits 1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "num_bits 255" 8 (Nat.num_bits (Nat.of_int 255));
  Alcotest.(check int) "num_bits 2^100" 101 (Nat.num_bits (Nat.shift_left Nat.one 100));
  Alcotest.(check bool) "testbit" true (Nat.testbit (Nat.of_int 4) 2);
  Alcotest.(check bool) "testbit off" false (Nat.testbit (Nat.of_int 4) 1);
  Alcotest.(check bool) "testbit beyond" false (Nat.testbit (Nat.of_int 4) 90)

let test_strings () =
  check_eq "decimal" (Nat.of_int 1234567890) (Nat.of_decimal "1234567890");
  Alcotest.(check string) "to_decimal zero" "0" (Nat.to_decimal Nat.zero);
  Alcotest.(check string) "hex" "deadbeef" (Nat.to_hex (Nat.of_hex "deadbeef"));
  Alcotest.(check string) "odd hex" "f" (Nat.to_hex (Nat.of_hex "f"));
  check_eq "bytes" (Nat.of_int 0x010203) (Nat.of_bytes_be "\x01\x02\x03");
  Alcotest.(check string) "to_bytes" "\x01\x02\x03" (Nat.to_bytes_be (Nat.of_int 0x010203));
  Alcotest.(check string) "padded" "\x00\x00\x2a" (Nat.to_bytes_be_padded (Nat.of_int 42) 3);
  Alcotest.check_raises "too wide" (Invalid_argument "Nat.to_bytes_be_padded: too wide")
    (fun () -> ignore (Nat.to_bytes_be_padded (Nat.of_int 0x010203) 2));
  Alcotest.check_raises "bad digit" (Invalid_argument "Nat.of_decimal: bad digit") (fun () ->
      ignore (Nat.of_decimal "12a"))

let test_pow_mod () =
  let p = Nat.of_int 1000003 in
  check_eq "fermat" Nat.one (Nat.pow_mod ~base:(Nat.of_int 2) ~exp:(Nat.pred p) ~modulus:p);
  check_eq "exp 0" Nat.one (Nat.pow_mod ~base:(Nat.of_int 7) ~exp:Nat.zero ~modulus:p);
  check_eq "mod 1" Nat.zero (Nat.pow_mod ~base:(Nat.of_int 7) ~exp:(Nat.of_int 3) ~modulus:Nat.one);
  check_eq "known" (Nat.of_int 445)
    (Nat.pow_mod ~base:(Nat.of_int 4) ~exp:(Nat.of_int 13) ~modulus:(Nat.of_int 497))

(* Edge cases for the Montgomery path and its square-and-multiply fallback. *)
let test_pow_mod_variants () =
  let big_odd = Nat.succ (Nat.shift_left Nat.one 512) (* 2^512 + 1, odd *) in
  let big_even = Nat.shift_left Nat.one 200 in
  List.iter
    (fun (name, g, e, m) ->
      check_eq name
        (Nat.pow_mod_simple ~base:g ~exp:e ~modulus:m)
        (Nat.pow_mod ~base:g ~exp:e ~modulus:m))
    [ ("rsa-shaped", Nat.of_decimal "123456789123456789", Nat.of_int 65537, big_odd);
      ("even modulus", Nat.of_int 12345, Nat.of_int 65537, big_even);
      ("base 0", Nat.zero, Nat.of_int 65537, big_odd);
      ("base multiple of m", Nat.shift_left big_odd 7, Nat.of_int 65537, big_odd);
      ("exp 0 odd m", Nat.of_int 9, Nat.zero, big_odd);
      ("exp 1", Nat.of_int 9, Nat.one, big_odd);
      ("single-limb odd m", Nat.of_int 123456, Nat.of_int 54321, Nat.of_int 1000003);
      ("all-ones exp", Nat.of_int 3, Nat.pred (Nat.shift_left Nat.one 64), big_odd) ];
  check_eq "simple mod 1" Nat.zero
    (Nat.pow_mod_simple ~base:(Nat.of_int 7) ~exp:(Nat.of_int 3) ~modulus:Nat.one);
  Alcotest.check_raises "zero modulus" Division_by_zero (fun () ->
      ignore (Nat.pow_mod ~base:Nat.one ~exp:Nat.one ~modulus:Nat.zero));
  Alcotest.check_raises "zero modulus simple" Division_by_zero (fun () ->
      ignore (Nat.pow_mod_simple ~base:Nat.one ~exp:Nat.one ~modulus:Nat.zero))

(* Moduli whose limbs are all 2^30-1 (m = 2^(30k) - 1, so R = m + 1 and
   every residue is its own Montgomery form) with bases next to m drive the
   carries of the squaring, its doubling and the reduction to their maxima,
   which random inputs almost never do.  Exponents 2^j - 1 take the widest
   window every time; 2^j are all squarings. *)
let test_pow_mod_carry_edges () =
  for k = 1 to 40 do
    let m = Nat.pred (Nat.shift_left Nat.one (30 * k)) in
    List.iter
      (fun g ->
        List.iter
          (fun j ->
            List.iter
              (fun e ->
                check_eq
                  (Printf.sprintf "k=%d g=%s e=%s" k (Nat.to_hex g) (Nat.to_hex e))
                  (Nat.pow_mod_simple ~base:g ~exp:e ~modulus:m)
                  (Nat.pow_mod ~base:g ~exp:e ~modulus:m))
              [ Nat.pred (Nat.shift_left Nat.one j); Nat.shift_left Nat.one j ])
          [ 7; 8; 15; 16; 30; 31; 61; 128; 599; 600 ])
      [ Nat.zero; Nat.one; Nat.sub m Nat.two; Nat.pred m ]
  done

let test_gcd () =
  check_eq "gcd" (Nat.of_int 6) (Nat.gcd (Nat.of_int 48) (Nat.of_int 18));
  check_eq "gcd with zero" (Nat.of_int 5) (Nat.gcd (Nat.of_int 5) Nat.zero);
  check_eq "coprime" Nat.one (Nat.gcd (Nat.of_int 17) (Nat.of_int 31))

let test_zint () =
  let z = Zint.of_int in
  Alcotest.(check bool) "neg add" true (Zint.equal (Zint.add (z 5) (z (-8))) (z (-3)));
  Alcotest.(check bool) "mul signs" true (Zint.equal (Zint.mul (z (-4)) (z (-5))) (z 20));
  Alcotest.(check bool) "sub" true (Zint.equal (Zint.sub (z 3) (z 10)) (z (-7)));
  Alcotest.(check bool) "compare" true (Zint.compare (z (-1)) (z 1) < 0);
  check_eq "erem positive" (Nat.of_int 4) (Zint.erem (z (-3)) (Nat.of_int 7));
  check_eq "erem of pos" (Nat.of_int 3) (Zint.erem (z 10) (Nat.of_int 7))

let test_mod_inverse () =
  (match Zint.mod_inverse (Nat.of_int 3) ~modulus:(Nat.of_int 11) with
  | Some inv -> check_eq "3^-1 mod 11" (Nat.of_int 4) inv
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "non-invertible" true
    (Zint.mod_inverse (Nat.of_int 6) ~modulus:(Nat.of_int 9) = None)

(* The last three are strong pseudoprimes, composites that pass Miller-Rabin
   rounds on many small bases: 3215031751 = 151 * 751 * 28351 passes the
   prime bases 2, 3, 5, 7, 19 and 37 (the sieve rejects it, for its factor
   151), 3825123056546413051 every prime base up to 31, and
   318665857834031151167461 every prime base up to 37 but not 41, so a
   rounds loop that drops its last base passes it. *)
let test_primes () =
  let rng = Rpki_util.Rng.create 99 in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) n expect (Prime.is_probably_prime rng (Nat.of_decimal n)))
    [ ("2", true); ("3", true); ("4", false); ("17", true); ("561", false) (* Carmichael *);
      ("7919", true); ("7917", false); ("1000003", true); ("1000001", false);
      ("3215031751", false); ("3825123056546413051", false);
      ("318665857834031151167461", false) ];
  let n = Nat.of_decimal "318665857834031151167461" in
  let bases = List.map Nat.of_int [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ] in
  Alcotest.(check bool) "passes the prime bases 2..37" true (Prime.passes n ~bases);
  Alcotest.(check bool) "rejected once 41 is added" false
    (Prime.passes n ~bases:(bases @ [ Nat.of_int 41 ]));
  let p = Prime.generate rng ~bits:64 in
  Alcotest.(check int) "generated width" 64 (Nat.num_bits p);
  Alcotest.(check bool) "generated is prime" true (Prime.is_probably_prime rng p)

(* [Prime.generate] against the search that ran all 40 rounds on every
   number passing round 1 ([Keygen_ref]): five seeds at each width from 8 to
   300 bits give the same prime and leave the stream at the same place. *)
let test_generate_reference () =
  for bits = 8 to 300 do
    for seed = 1 to 5 do
      let ours = Rpki_util.Rng.create ((bits * 8) + seed)
      and theirs = Rpki_util.Rng.create ((bits * 8) + seed) in
      let label = Printf.sprintf "%d bits, seed %d" bits seed in
      check_eq label (Keygen_ref.generate theirs ~bits) (Prime.generate ours ~bits);
      Alcotest.(check int) (label ^ ": next draw")
        (Rpki_util.Rng.bits theirs 62) (Rpki_util.Rng.bits ours 62)
    done
  done

(* --- properties --- *)

(* Odd moduli of 1 to 70 limbs, each limb 0, 2^30 - 1 or random, so runs of
   saturated limbs (the carry edge cases) are common. *)
let arb_mont =
  let limb_max = (1 lsl 30) - 1 in
  let limbs n =
    QCheck.Gen.(
      list_repeat n
        (frequency [ (1, return 0); (2, return limb_max); (2, int_bound limb_max) ]))
  in
  let of_limbs l =
    List.fold_right (fun x acc -> Nat.add (Nat.shift_left acc 30) (Nat.of_int x)) l Nat.zero
  in
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 70 in
      let* low = limbs (n - 1) in
      let* top = int_range 1 limb_max in
      let* g = limbs n in
      let* e = gen_nat_bits 160 in
      let m = of_limbs (List.mapi (fun i x -> if i = 0 then x lor 1 else x) (low @ [ top ])) in
      return (of_limbs g, Nat.add e (Nat.of_int 128), m))
  in
  QCheck.make
    ~print:(fun (g, e, m) ->
      Printf.sprintf "g=%s e=%s m=%s" (Nat.to_hex g) (Nat.to_hex e) (Nat.to_hex m))
    gen

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

let props =
  [ prop "add commutative" (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    prop "add associative" (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
        Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)));
    prop "sub inverts add" (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        Nat.equal a (Nat.sub (Nat.add a b) b));
    prop "mul distributes" (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    prop "divmod reconstructs" (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero b));
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.lt r b);
    prop "karatsuba matches schoolbook" (QCheck.pair arb_nat_big arb_nat_big) (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul_schoolbook a b));
    prop "decimal roundtrip" arb_nat (fun a -> Nat.equal a (Nat.of_decimal (Nat.to_decimal a)));
    prop "bytes roundtrip" arb_nat (fun a -> Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)));
    (* the linear of_bytes_be against the shift-and-add fold it replaced,
       on 0-600 bytes, a run of leading zeros included *)
    prop "of_bytes_be matches shift-and-add"
      (QCheck.pair (QCheck.int_bound 8) (QCheck.string_of_size (QCheck.Gen.int_bound 600)))
      (fun (zeros, s) ->
        let s = String.make zeros '\x00' ^ s in
        let reference =
          String.fold_left
            (fun r c -> Nat.add (Nat.shift_left r 8) (Nat.of_int (Char.code c)))
            Nat.zero s
        in
        Nat.equal (Nat.of_bytes_be s) reference);
    prop "shift roundtrip" (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
        Nat.equal a (Nat.shift_right (Nat.shift_left a k) k));
    prop "shift_left is mul by power" (QCheck.pair arb_nat (QCheck.int_bound 80)) (fun (a, k) ->
        Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.shift_left Nat.one k)));
    prop "compare consistent with sub" (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        if Nat.le a b then Nat.equal b (Nat.add a (Nat.sub b a)) else Nat.lt b a);
    prop "egcd bezout" (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero a) && not (Nat.is_zero b));
        let g, x, y = Zint.egcd a b in
        let lhs = Zint.add (Zint.mul (Zint.of_nat a) x) (Zint.mul (Zint.of_nat b) y) in
        Zint.equal lhs (Zint.of_nat g) && Nat.equal g (Nat.gcd a b));
    prop "mod_inverse correct" (QCheck.pair arb_nat arb_nat) (fun (a, m) ->
        QCheck.assume (Nat.compare m Nat.two > 0);
        match Zint.mod_inverse a ~modulus:m with
        | None -> not (Nat.equal (Nat.gcd (Nat.rem a m) m) Nat.one) || Nat.is_zero (Nat.rem a m)
        | Some inv -> Nat.equal (Nat.rem (Nat.mul a inv) m) Nat.one);
    prop "random below bound" (QCheck.pair QCheck.int arb_nat) (fun (seed, bound) ->
        QCheck.assume (not (Nat.is_zero bound));
        let rng = Rpki_util.Rng.create seed in
        Nat.lt (Nat.random rng ~bound) bound);
    (* Windowed-Montgomery pow_mod agrees with square-and-multiply on random
       base/exp/modulus — even moduli exercise the fallback dispatch. *)
    prop "pow_mod matches square-and-multiply"
      (QCheck.triple arb_nat arb_nat arb_nat_big)
      (fun (g, e, m) ->
        QCheck.assume (not (Nat.is_zero m));
        Nat.equal
          (Nat.pow_mod ~base:g ~exp:e ~modulus:m)
          (Nat.pow_mod_simple ~base:g ~exp:e ~modulus:m));
    prop "pow_mod odd modulus forced"
      (QCheck.triple arb_nat arb_nat arb_nat_big)
      (fun (g, e, m) ->
        let m = if Nat.testbit m 0 then m else Nat.succ m in
        Nat.equal
          (Nat.pow_mod ~base:g ~exp:e ~modulus:m)
          (Nat.pow_mod_simple ~base:g ~exp:e ~modulus:m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"pow_mod on saturated-limb odd moduli" arb_mont
         (fun (g, e, m) ->
           Nat.equal
             (Nat.pow_mod ~base:g ~exp:e ~modulus:m)
             (Nat.pow_mod_simple ~base:g ~exp:e ~modulus:m))) ]

let () =
  Alcotest.run "bignum"
    [ ( "nat-unit",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul known values" `Quick test_mul_known;
          Alcotest.test_case "divmod edges" `Quick test_divmod_edges;
          Alcotest.test_case "divmod add-back path" `Quick test_divmod_addback;
          Alcotest.test_case "shifts" `Quick test_shift;
          Alcotest.test_case "bit queries" `Quick test_bits;
          Alcotest.test_case "string conversions" `Quick test_strings;
          Alcotest.test_case "pow_mod" `Quick test_pow_mod;
          Alcotest.test_case "pow_mod montgomery edges" `Quick test_pow_mod_variants;
          Alcotest.test_case "pow_mod carry edges" `Quick test_pow_mod_carry_edges;
          Alcotest.test_case "gcd" `Quick test_gcd ] );
      ( "zint-unit",
        [ Alcotest.test_case "signed arithmetic" `Quick test_zint;
          Alcotest.test_case "mod_inverse" `Quick test_mod_inverse ] );
      ( "primes",
        [ Alcotest.test_case "miller-rabin" `Quick test_primes;
          Alcotest.test_case "generate = reference, 8-300 bits" `Quick
            test_generate_reference ] );
      ("properties", props) ]
