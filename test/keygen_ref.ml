(* The prime search and RSA pair loop that the library shipped before key
   generation proved only the pair it keeps: every number that passes
   Miller-Rabin round 1 runs rounds 2-40 at once.  The oracle the test suite
   checks [Rpki_bignum.Prime] and [Rpki_crypto.Rsa.generate] against: the
   same primes, the same keys and the same stream position after each.
   Kept as written; the pair loop returns the numbers its key was made of,
   and a full-width signer stands in for the CRT one.  Nothing outside the
   tests uses it. *)
open Rpki_bignum

(* --- the prime search, as shipped --- *)

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

(* Write n - 1 = d * 2^s with d odd. *)
let decompose n =
  let n1 = Nat.pred n in
  let rec go d s = if Nat.testbit d 0 then (d, s) else go (Nat.shift_right d 1) (s + 1) in
  go n1 0

let miller_rabin_witness n ~d ~s a =
  (* returns true if [a] witnesses that [n] is composite *)
  let x = Nat.pow_mod ~base:a ~exp:d ~modulus:n in
  let n1 = Nat.pred n in
  if Nat.equal x Nat.one || Nat.equal x n1 then false
  else begin
    let rec squares x i =
      if i >= s - 1 then true
      else begin
        let x = Nat.rem (Nat.mul x x) n in
        if Nat.equal x n1 then false else squares x (i + 1)
      end
    in
    squares x 0
  end

let is_probably_prime rng n =
  match Nat.to_int_opt n with
  | Some i when i < 4 -> i = 2 || i = 3
  | _ ->
    if not (Nat.testbit n 0) then false
    else if
      List.exists
        (fun p ->
          let pn = Nat.of_int p in
          Nat.is_zero (Nat.rem n pn) && not (Nat.equal n pn))
        small_primes
    then false
    else begin
      let d, s = decompose n in
      let n3 = Nat.sub n (Nat.of_int 3) in
      let rec trial k =
        if k = 0 then true
        else begin
          (* a uniform in [2, n-1].  The textbook range stops at n-2, but
             n-1 is merely a wasted round (it never witnesses), and
             narrowing the draw would change every key ever generated *)
          let a = Nat.add (Nat.random rng ~bound:(Nat.succ n3)) Nat.two in
          if miller_rabin_witness n ~d ~s a then false else trial (k - 1)
        end
      in
      trial 40
    end

(* Generate a random prime with exactly [bits] bits. *)
let generate rng ~bits =
  if bits < 4 then invalid_arg "Prime.generate: want >= 4 bits";
  let rec go () =
    let candidate = Nat.random_bits rng ~bits in
    (* force odd *)
    let candidate = if Nat.testbit candidate 0 then candidate else Nat.succ candidate in
    if Nat.num_bits candidate = bits && is_probably_prime rng candidate then candidate
    else go ()
  in
  go ()

(* --- the RSA pair loop, as shipped --- *)

type key = { n : Nat.t; d : Nat.t }

let rsa_generate ~bits rng =
  let e = Nat.of_int 65537 in
  let half = bits / 2 in
  let rec go () =
    let p = generate rng ~bits:half in
    let q = generate rng ~bits:(bits - half) in
    if Nat.equal p q then go ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.pred p) (Nat.pred q) in
      match Zint.mod_inverse e ~modulus:phi with
      | None -> go ()
      | Some d ->
        if Nat.num_bits n <> bits then go ()
        else { n; d }
    end
  in
  go ()

(* em^d mod n over the PKCS#1 v1.5 encoding of the message's SHA-256: the
   one signature a key has for a message, whichever way it is computed. *)
let sign key msg =
  let len = (Nat.num_bits key.n + 7) / 8 in
  let t =
    "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"
    ^ Rpki_crypto.Sha256.digest msg
  in
  let em = "\x00\x01" ^ String.make (len - String.length t - 3) '\xff' ^ "\x00" ^ t in
  Nat.to_bytes_be_padded (Nat.pow_mod ~base:(Nat.of_bytes_be em) ~exp:key.d ~modulus:key.n) len
