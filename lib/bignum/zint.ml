(* Signed arbitrary-precision integers, as a thin layer over [Nat].

   Only the operations needed by the extended Euclidean algorithm and RSA key
   generation are provided; the RPKI layers never manipulate negative
   quantities directly. *)

type sign = Pos | Neg

type t = { sign : sign; mag : Nat.t }
(* invariant: if mag = 0 then sign = Pos *)

let make sign mag = if Nat.is_zero mag then { sign = Pos; mag } else { sign; mag }

let zero = { sign = Pos; mag = Nat.zero }
let of_nat mag = { sign = Pos; mag }
let of_int i = if i < 0 then make Neg (Nat.of_int (-i)) else of_nat (Nat.of_int i)

let neg a = make (match a.sign with Pos -> Neg | Neg -> Pos) a.mag

let is_zero a = Nat.is_zero a.mag
let is_neg a = a.sign = Neg && not (is_zero a)

let add a b =
  match (a.sign, b.sign) with
  | Pos, Pos -> make Pos (Nat.add a.mag b.mag)
  | Neg, Neg -> make Neg (Nat.add a.mag b.mag)
  | Pos, Neg | Neg, Pos ->
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Nat.sub a.mag b.mag)
    else make b.sign (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)

let mul a b =
  let sign = if a.sign = b.sign then Pos else Neg in
  make sign (Nat.mul a.mag b.mag)

let compare a b =
  match (is_neg a, is_neg b) with
  | true, false -> -1
  | false, true -> 1
  | false, false -> Nat.compare a.mag b.mag
  | true, true -> Nat.compare b.mag a.mag

let equal a b = compare a b = 0

(* Euclidean remainder of [a] modulo positive natural [m], always in [0, m). *)
let erem a m =
  let r = Nat.rem a.mag m in
  if a.sign = Pos || Nat.is_zero r then r else Nat.sub m r

(* Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b). *)
let egcd (a : Nat.t) (b : Nat.t) =
  let rec go r0 r1 s0 s1 t0 t1 =
    if Nat.is_zero r1 then (r0, s0, t0)
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      let qz = of_nat q in
      go r1 r2 s1 (sub s0 (mul qz s1)) t1 (sub t0 (mul qz t1))
    end
  in
  go a b (of_int 1) zero zero (of_int 1)

(* Modular inverse of [a] modulo [m]; None when gcd(a, m) <> 1. *)
let mod_inverse (a : Nat.t) ~(modulus : Nat.t) =
  let g, x, _ = egcd (Nat.rem a modulus) modulus in
  if not (Nat.equal g Nat.one) then None else Some (erem x modulus)
