(* Probabilistic primality testing and prime generation for RSA keygen.

   Miller-Rabin with 40 rounds (a 2^-80 error bound, far below any concern
   for a simulation substrate).
   Candidates are pre-sieved against small primes to skip most composites
   before the expensive modular exponentiations.

   A search splits each number into a candidate and its proof.  A candidate
   survived the sieve and round 1, and carries the bases of rounds 2-40,
   drawn right after round 1's: where the stream draws them for a number
   that proves prime.  The proof runs those rounds, and a pair search runs
   it only on the pair its caller keeps, so no prime of a discarded pair
   pays for rounds 2-40. *)

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

let rounds = 40

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

let passes n ~bases =
  let d, s = decompose n in
  List.for_all (fun a -> not (miller_rabin_witness n ~d ~s a)) bases

type candidate = { value : Nat.t; later : Nat.t list (* the bases of rounds 2-40 *) }

(* [Some] when odd [n >= 5] survives the sieve and round 1.  Draws round
   1's base, and rounds 2-40's only once round 1 has passed. *)
let candidate rng n =
  if
    List.exists
      (fun p ->
        let pn = Nat.of_int p in
        Nat.is_zero (Nat.rem n pn) && not (Nat.equal n pn))
      small_primes
  then None
  else begin
    (* a uniform in [2, n-1].  The textbook range stops at n-2, but n-1 is
       merely a wasted round (it never witnesses), and narrowing the draw
       would change every key ever generated *)
    let bound = Nat.sub n Nat.two in
    let base () = Nat.add (Nat.random rng ~bound) Nat.two in
    if passes n ~bases:[ base () ] then
      Some { value = n; later = List.init (rounds - 1) (fun _ -> base ()) }
    else None
  end

let proved c = passes c.value ~bases:c.later

let is_probably_prime rng n =
  match Nat.to_int_opt n with
  | Some i when i < 4 -> i = 2 || i = 3
  | _ ->
    Nat.testbit n 0 && (match candidate rng n with Some c -> proved c | None -> false)

(* The next candidate with exactly [bits] bits. *)
let rec search rng ~bits =
  let n = Nat.random_bits rng ~bits in
  (* force odd *)
  let n = if Nat.testbit n 0 then n else Nat.succ n in
  if Nat.num_bits n <> bits then search rng ~bits
  else match candidate rng n with Some c -> c | None -> search rng ~bits

let check_bits fn bits = if bits < 4 then invalid_arg (fn ^ ": want >= 4 bits")

let generate rng ~bits =
  check_bits "Prime.generate" bits;
  let rec go () =
    let c = search rng ~bits in
    if proved c then c.value else go ()
  in
  go ()

let pair rng ~bits:(p_bits, q_bits) ~keep =
  check_bits "Prime.pair" (min p_bits q_bits);
  let rec go () =
    let p = search rng ~bits:p_bits in
    let q = search rng ~bits:q_bits in
    match keep p.value q.value with
    | Some kept when proved p && proved q -> kept
    | _ -> go ()
  in
  go ()
