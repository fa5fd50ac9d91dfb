(* Deterministic pseudo-random number generation.

   All randomness in the repository flows through a seeded [t] so that every
   experiment and test is reproducible bit-for-bit.  The generator is
   SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, statistically
   strong, splittable generator that needs only 64-bit arithmetic. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let of_int64 seed = { state = seed }

let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* One SplitMix64 step: advance the state by the golden gamma and scramble. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A fresh generator whose stream is independent of the parent's future. *)

(* Non-negative int uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

(* [bits t n] returns a non-negative int with exactly the low [n] bits
   random, for 1 <= n <= 62. *)
let bits t n =
  if n < 1 || n > 62 then invalid_arg "Rng.bits: want 1..62";
  Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - n))

let byte t = bits t 8

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (byte t))
  done;
  Bytes.unsafe_to_string b

(* Fisher-Yates shuffle of a fresh copy of the input list. *)
let shuffle t l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))
