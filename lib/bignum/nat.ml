(* Arbitrary-precision natural numbers.

   Representation: little-endian array of limbs in base 2^30, with no
   high-order zero limbs (so zero is the empty array).  Base 2^30 keeps every
   intermediate product/carry below 2^62, safely inside OCaml's 63-bit native
   int on 64-bit platforms.

   Most of the module favours clarity over speed.  The exception is the
   Montgomery kernel behind [pow_mod], where RSA key generation, signing and
   verification spend nearly all their time: it works in scratch the caller
   owns, squares with each cross product computed once, and skips bounds
   checks in its three inner loops.  The other algorithmically interesting
   parts are Knuth's Algorithm D for division and Karatsuba multiplication
   above a fixed threshold. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array
(* invariant: t = [||] or t.(Array.length t - 1) <> 0; every limb in [0, base) *)

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

(* Drop high zero limbs to restore the canonical form. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i =
  if i < 0 then invalid_arg "Nat.of_int: negative";
  if i = 0 then zero
  else if i < base then [| i |]
  else if i < base * base then [| i land mask; i lsr limb_bits |]
  else [| i land mask; (i lsr limb_bits) land mask; i lsr (2 * limb_bits) |]

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl limb_bits) lor a.(0))
  | 3 when a.(2) < 1 lsl (62 - (2 * limb_bits)) ->
    Some ((a.(2) lsl (2 * limb_bits)) lor (a.(1) lsl limb_bits) lor a.(0))
  | _ -> None

let to_int_exn a =
  match to_int_opt a with
  | Some i -> i
  | None -> failwith "Nat.to_int_exn: does not fit in int"

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0

let testbit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: negative result";
  normalize r

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- cur land mask;
        carry := cur lsr limb_bits
      done;
      (* propagate the final carry, which may itself overflow a limb *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land mask;
        carry := cur lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let karatsuba_threshold = 32

(* Split [a] at limb position [k] into (low, high). *)
let split_at (a : t) k =
  let n = Array.length a in
  if n <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (n - k)))

let shift_limbs (a : t) k =
  if is_zero a then zero
  else begin
    let n = Array.length a in
    let r = Array.make (n + k) 0 in
    Array.blit a 0 r k n;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let n = Array.length a in
    let r = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let n = Array.length a in
    if limbs >= n then zero
    else begin
      let m = n - limbs in
      let r = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if off > 0 && i + limbs + 1 < n then (a.(i + limbs + 1) lsl (limb_bits - off)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb; returns (quotient, remainder). *)
let divmod_limb (a : t) (d : int) =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_limb";
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth TAOCP vol. 2, Algorithm D.  Requires [b] non-zero. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else begin
    (* Normalize so the divisor's top limb has its high bit set. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go v acc = if v >= base / 2 then acc else go (v lsl 1) (acc + 1) in
      go top 0
    in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    (* Working copy of u with an extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vnext = v.(n - 2) in
    for j = m downto 0 do
      (* Estimate the quotient digit from the top two/three limbs. *)
      let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      let adjust () =
        while
          !qhat >= base
          || (!qhat * vnext) > ((!rhat lsl limb_bits) lor w.(j + n - 2))
        do
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then begin
            (* rhat overflowed a limb: the comparison above can no longer
               fail, so stop adjusting. *)
            rhat := base (* sentinel making the guard false *)
          end
        done
      in
      if !rhat < base then adjust ();
      (* Multiply-and-subtract: w[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = w.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          w.(i + j) <- d + base;
          borrow := 1
        end else begin
          w.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back once. *)
        w.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = w.(i + j) + v.(i) + !c in
          w.(i + j) <- s land mask;
          c := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !c) land mask
      end else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let rem = normalize (Array.sub w 0 n) in
    (normalize q, shift_right rem shift)
  end

let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Left-to-right square-and-multiply modular exponentiation.  Kept as the
   reference implementation: [pow_mod] below cross-dispatches to it for even
   moduli and tiny exponents, and the test suite checks the two agree. *)
let pow_mod_simple ~base:g ~exp ~modulus:m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let g = rem g m in
    let result = ref one in
    let bits = num_bits exp in
    for i = bits - 1 downto 0 do
      result := rem (mul !result !result) m;
      if testbit exp i then result := rem (mul !result g) m
    done;
    !result
  end

(* --- Montgomery modular arithmetic ---

   For an odd modulus m of n limbs, work with residues x·R mod m where
   R = (2^30)^n.  A Montgomery product computes a·b·R^-1 mod m with plain
   limb arithmetic and shifts — no division — so a modular exponentiation
   pays for one real division (computing R^2 mod m) up front and none in
   the loop.

   Each product is separated operand scanning (SOS): form the whole 2n-limb
   a·b in a caller-owned scratch [t] of 2n+1 limbs, then [redc] folds it
   down.  A square needs each cross product a_i·a_j (i < j) only once: sum
   them, double the sum and add the diagonal a_i², for n(n+1)/2 + n² limb
   products (reduction included) instead of 2n².  Results go into an array
   the caller passes in, written only after the scratch holds the whole
   product, so the output may be an input: an exponentiation allocates its
   scratch, one accumulator and its window table, and nothing per product.

   Carry bound: with 30-bit limbs every intermediate stays below 2^62.  A
   multiply-accumulate step is at most (2^30-1)^2 + 2·(2^30-1) = 2^60 - 1,
   so its carry stays below 2^30; the doubling step adds at most
   2·(2^30-1) + (2^30-1)^2 + (2^30+1) < 2^61, carrying at most 2^30 + 1.

   The three inner loops (product, cross products, reduction) skip bounds
   checks.  Index invariant: [t] has 2n+1 limbs and every index into it is
   i + j <= 2n - 2; operands and the modulus have n limbs (made by [fixed],
   by [mont_init] or by the kernel itself) and are read at j < n. *)

type mont = {
  mm : int array; (* modulus, fixed width, mn limbs *)
  mn : int;
  m' : int; (* -m^-1 mod 2^30 *)
  r2 : int array; (* R^2 mod m, fixed width *)
}

(* Pad a canonical value (< 2^(30n)) out to a fixed n-limb array. *)
let fixed (a : t) n =
  let r = Array.make n 0 in
  Array.blit a 0 r 0 (Array.length a);
  r

let mont_init (m_nat : t) =
  let mn = Array.length m_nat in
  let m0 = m_nat.(0) in
  (* Hensel-lift the inverse of m0 mod 2^30: x <- x(2 - m0·x) doubles the
     number of correct low bits each round, starting from 3 (odd m0 is its
     own inverse mod 8). *)
  let x = ref m0 in
  for _ = 1 to 5 do
    let y = (2 - (m0 * !x)) land mask in
    x := (!x * y) land mask
  done;
  let m' = (base - !x) land mask in
  let r2 = rem (shift_left one (2 * limb_bits * mn)) m_nat in
  { mm = Array.copy m_nat; mn; m'; r2 = fixed r2 mn }

(* [r] <- t·R^-1 mod m for the 2n-limb t < m·R held in [t] (t[2n] = 0).
   Row i adds u·m·B^i with u chosen so limb i cancels; the carry out of the
   row's top limb is held in [c2] and added with the next row, so no carry
   ever ripples further.  Destroys [t]. *)
let redc ctx (t : int array) (r : int array) =
  let n = ctx.mn and m = ctx.mm and m' = ctx.m' in
  let c2 = ref 0 in
  for i = 0 to n - 1 do
    let u = (t.(i) * m') land mask in
    let c = ref 0 in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get t (i + j) + (u * Array.unsafe_get m j) + !c in
      Array.unsafe_set t (i + j) (s land mask);
      c := s lsr limb_bits
    done;
    let s = t.(i + n) + !c + !c2 in
    t.(i + n) <- s land mask;
    c2 := s lsr limb_bits
  done;
  t.(2 * n) <- !c2;
  (* t[n..2n] = (t + U·m)/R < 2m: one conditional subtract restores the
     range. *)
  let ge_m =
    t.(2 * n) <> 0
    ||
    let rec go i =
      if i < 0 then true else if t.(n + i) <> m.(i) then t.(n + i) > m.(i) else go (i - 1)
    in
    go (n - 1)
  in
  if ge_m then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = t.(n + i) - m.(i) - !borrow in
      r.(i) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t n r 0 n

(* [r] <- a·b·R^-1 mod m, for fixed-width a, b < m. *)
let mont_mul ctx t (a : int array) (b : int array) (r : int array) =
  let n = ctx.mn in
  Array.fill t 0 ((2 * n) + 1) 0;
  for i = 0 to n - 1 do
    let ai = a.(i) in
    let c = ref 0 in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get t (i + j) + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t (i + j) (s land mask);
      c := s lsr limb_bits
    done;
    t.(i + n) <- !c
  done;
  redc ctx t r

(* [r] <- a²·R^-1 mod m, for a fixed-width a < m. *)
let mont_sqr ctx t (a : int array) (r : int array) =
  let n = ctx.mn in
  Array.fill t 0 ((2 * n) + 1) 0;
  for i = 0 to n - 2 do
    let ai = a.(i) in
    let c = ref 0 in
    for j = i + 1 to n - 1 do
      let s = Array.unsafe_get t (i + j) + (ai * Array.unsafe_get a j) + !c in
      Array.unsafe_set t (i + j) (s land mask);
      c := s lsr limb_bits
    done;
    t.(i + n) <- !c
  done;
  (* double the cross sum and add the diagonal; a² < B^2n, so no carry is
     left over *)
  let c = ref 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    let s = (t.(2 * i) lsl 1) + (ai * ai) + !c in
    t.(2 * i) <- s land mask;
    let s = (t.((2 * i) + 1) lsl 1) + (s lsr limb_bits) in
    t.((2 * i) + 1) <- s land mask;
    c := s lsr limb_bits
  done;
  redc ctx t r

(* 4-bit sliding-window exponentiation over Montgomery products.  Requires
   an odd modulus > 1. *)
let pow_mod_mont ~base:g ~exp ~modulus:m_nat =
  let ctx = mont_init m_nat in
  let n = ctx.mn in
  let t = Array.make ((2 * n) + 1) 0 in
  let product a b =
    let r = Array.make n 0 in
    mont_mul ctx t a b r;
    r
  in
  let gm = product (fixed (rem g m_nat) n) ctx.r2 in
  (* odd powers g^1, g^3, ..., g^15 in Montgomery form *)
  let g2 = Array.make n 0 in
  mont_sqr ctx t gm g2;
  let table = Array.make 8 gm in
  for k = 1 to 7 do
    table.(k) <- product table.(k - 1) g2
  done;
  let one_f = fixed one n in
  let acc = product ctx.r2 one_f (* R mod m, i.e. 1 in-domain *) in
  let i = ref (num_bits exp - 1) in
  while !i >= 0 do
    if not (testbit exp !i) then begin
      mont_sqr ctx t acc acc;
      decr i
    end else begin
      (* widest window of <= 4 bits ending on a set bit *)
      let l = ref (max (!i - 3) 0) in
      while not (testbit exp !l) do incr l done;
      let w = ref 0 in
      for j = !i downto !l do
        w := (!w lsl 1) lor (if testbit exp j then 1 else 0)
      done;
      for _ = !l to !i do
        mont_sqr ctx t acc acc
      done;
      mont_mul ctx t acc table.((!w - 1) / 2) acc;
      i := !l - 1
    end
  done;
  mont_mul ctx t acc one_f acc;
  normalize acc

let pow_mod ~base:g ~exp ~modulus:m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if m.(0) land 1 = 1 && num_bits exp >= 8 then pow_mod_mont ~base:g ~exp ~modulus:m
  else pow_mod_simple ~base:g ~exp ~modulus:m

let succ a = add a one
let pred a = sub a one

(* Linear: byte k from the end holds bits [8k, 8k+8), which land in one
   limb or straddle two. *)
let of_bytes_be s =
  let len = String.length s in
  let a = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  for k = 0 to len - 1 do
    let byte = Char.code (String.unsafe_get s (len - 1 - k)) in
    let limb = 8 * k / limb_bits and off = 8 * k mod limb_bits in
    a.(limb) <- a.(limb) lor ((byte lsl off) land mask);
    if off > limb_bits - 8 then a.(limb + 1) <- a.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize a

let to_bytes_be a =
  if is_zero a then "\x00"
  else begin
    let nbytes = (num_bits a + 7) / 8 in
    String.init nbytes (fun i ->
        let bit = (nbytes - 1 - i) * 8 in
        let limb = bit / limb_bits and off = bit mod limb_bits in
        let lo = a.(limb) lsr off in
        let hi =
          if off > limb_bits - 8 && limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off)
          else 0
        in
        Char.chr ((lo lor hi) land 0xff))
  end

(* Fixed-width big-endian encoding, left-padded with zeros. *)
let to_bytes_be_padded a width =
  let s = to_bytes_be a in
  let s = if equal a zero then "" else s in
  let n = String.length s in
  if n > width then invalid_arg "Nat.to_bytes_be_padded: too wide";
  String.make (width - n) '\x00' ^ s

let of_hex h = of_bytes_be (Rpki_util.Hex.to_string (if String.length h mod 2 = 1 then "0" ^ h else h))

let to_hex a =
  let s = Rpki_util.Hex.of_string (to_bytes_be a) in
  (* strip a single leading zero nibble for canonical output *)
  if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s

let of_decimal s =
  if s = "" then invalid_arg "Nat.of_decimal: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Nat.of_decimal: bad digit";
      r := add (mul !r (of_int 10)) (of_int (Char.code c - Char.code '0')))
    s;
  !r

let to_decimal a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let r = ref a in
    while not (is_zero !r) do
      let q, d = divmod_limb !r 10 in
      Buffer.add_char buf (Char.chr (Char.code '0' + d));
      r := q
    done;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)

(* Uniform random natural in [0, bound) via rejection sampling. *)
let random rng ~bound =
  if is_zero bound then invalid_arg "Nat.random: zero bound";
  let bits = num_bits bound in
  let nbytes = (bits + 7) / 8 in
  let topmask = if bits mod 8 = 0 then 0xff else (1 lsl (bits mod 8)) - 1 in
  let rec go () =
    let b = Bytes.of_string (Rpki_util.Rng.bytes rng nbytes) in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land topmask));
    let candidate = of_bytes_be (Bytes.to_string b) in
    if lt candidate bound then candidate else go ()
  in
  go ()

(* Random natural with exactly [bits] bits (top bit forced on). *)
let random_bits rng ~bits =
  if bits <= 0 then invalid_arg "Nat.random_bits";
  let nbytes = (bits + 7) / 8 in
  let b = Bytes.of_string (Rpki_util.Rng.bytes rng nbytes) in
  let top_off = (bits - 1) mod 8 in
  let topmask = (1 lsl (top_off + 1)) - 1 in
  Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) land topmask) lor (1 lsl top_off)));
  of_bytes_be (Bytes.to_string b)
