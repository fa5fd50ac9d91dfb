(* Arbitrary-precision natural numbers.

   Representation: little-endian array of limbs in base 2^30, with no
   high-order zero limbs (so zero is the empty array).  Base 2^30 keeps every
   intermediate product/carry below 2^62, safely inside OCaml's 63-bit native
   int on 64-bit platforms.

   Most of the module favours clarity over speed.  The exception is the
   Montgomery kernel behind [pow_mod], where RSA key generation, signing and
   verification spend nearly all their time: it scans each product by
   output column, carrying once per column, on limbs of the widest width
   (at most 29 bits) whose column sums cannot overflow a native int for
   the modulus at hand, squares with each cross product computed once, and
   skips bounds checks in its inner loops.  The other algorithmically
   interesting parts are Knuth's Algorithm D for division and Karatsuba
   multiplication above a fixed threshold. *)

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

(* Schoolbook only: every key the simulations make is 512 bits, so every
   product on the key path has operands of at most 18 limbs. *)
let mul (a : t) (b : t) : t =
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

   For an odd modulus m of n limbs of w bits, work with residues x·R mod m
   where R = 2^(w·n).  A Montgomery product computes a·b·R^-1 mod m with
   plain limb arithmetic and shifts — no division — so a modular
   exponentiation pays for one real division (computing R^2 mod m) up front
   and none in the loop.

   Each product scans by output column (finely integrated product
   scanning: Koç, Acar and Kaliski, "Analyzing and Comparing Montgomery
   Multiplication Algorithms", IEEE Micro 1996).  Column k adds every
   a_i·b_j and every u_i·m_j with i + j = k, and the carry out of column
   k - 1, in one native int, and carries once.  Below n, the column then
   picks u_k = -s·m^-1 mod 2^w, so that adding u_k·m_0 clears its low w
   bits; from n up, its low w bits are limb k - n of the result, which is
   below 2m, so one conditional subtraction of m finishes it.  A square
   sums each cross product a_i·a_j (i < j) of a column once and doubles the
   sum.  Column k reads operand limbs at k - n + 1 and above and writes
   limb k - n, so the result may share its array with an input.

   The limb width: the widest w <= 29 with n <= 2^(62-2w), where
   n = ceil(bits(m) / w).  Column k < n holds k + 1 products of each kind
   (u_k·m_0 included) and column k >= n fewer, so at most 2n products of at
   most (2^w-1)^2 each.  If the carry c into a column is at most
   2n·(2^w-1), the column's sum is at most 2n·(2^w-1)^2 + 2n·(2^w-1)
   = 2n·(2^w-1)·2^w, so the carry out of it, the sum shifted right by w,
   is again at most 2n·(2^w-1); the first carry is 0.  So every column sum
   stays below 2n·2^(2w) <= 2^63: it fits a native int read as unsigned,
   which is how [lsr] and [land] read it (OCaml adds mod 2^63).  A square's
   doubled cross sum is part of the same sum, and u_k's product
   (s mod 2^w)·m' stays below 2^58.  A 256-bit modulus (a prime or a CRT
   half) takes 9 limbs of 29 bits, a 512-bit one 19 limbs of 28 bits, and
   [Rsa]'s widest, 4096 bits, 152 limbs of 27 bits.

   An exponentiation repacks the modulus, the base and R^2 mod m into
   w-bit limbs on entry and the result into 30-bit limbs on exit, and
   allocates its context, one accumulator and its window table: nothing
   per product.  The inner loops skip bounds checks.  Index invariant:
   every array the kernel reads or writes (operands, result, modulus and
   the context's [u]) has n limbs, and every index is i or k - i with
   0 <= i, k - i <= n - 1. *)

type mont = {
  w : int; (* limb width in bits *)
  wmask : int; (* 2^w - 1 *)
  n : int; (* limbs in a residue *)
  m : int array; (* the modulus *)
  m' : int; (* -m^-1 mod 2^w *)
  r2 : int array; (* R^2 mod m *)
  u : int array; (* scratch: a product's multipliers u_0 .. u_(n-1) *)
}

(* [a]'s bits, read as [src]-bit limbs, as [n] limbs of [dst] bits; the
   value must fit them. *)
let repack (a : int array) ~src ~dst n =
  let r = Array.make n 0 in
  let acc = ref 0 and have = ref 0 and k = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc lor (a.(i) lsl !have);
    have := !have + src;
    while !have >= dst && !k < n do
      r.(!k) <- !acc land ((1 lsl dst) - 1);
      acc := !acc lsr dst;
      have := !have - dst;
      incr k
    done
  done;
  if !acc <> 0 then r.(!k) <- !acc;
  r

let mont_init (m_nat : t) =
  let bits = num_bits m_nat in
  let rec width w =
    let n = (bits + w - 1) / w in
    if n <= 1 lsl (62 - (2 * w)) then (w, n) else width (w - 1)
  in
  let w, n = width 29 in
  let wmask = (1 lsl w) - 1 in
  let m = repack m_nat ~src:limb_bits ~dst:w n in
  let m0 = m.(0) in
  (* Hensel-lift the inverse of m0 mod 2^w: x <- x(2 - m0·x) doubles the
     number of correct low bits each round, starting from 3 (odd m0 is its
     own inverse mod 8). *)
  let x = ref m0 in
  for _ = 1 to 5 do
    let y = (2 - (m0 * !x)) land wmask in
    x := (!x * y) land wmask
  done;
  let r2 = rem (shift_left one (2 * w * n)) m_nat in
  { w; wmask; n; m; m' = (wmask + 1 - !x) land wmask;
    r2 = repack r2 ~src:limb_bits ~dst:w n; u = Array.make n 0 }

(* Finish a product whose columns left limbs [r] and a carry [top] out of
   the last one: r + top·R < 2m, so subtract m once if it is at least m. *)
let final_subtract ctx (r : int array) top =
  let n = ctx.n and m = ctx.m in
  let i = ref (n - 1) in
  while !i >= 0 && r.(!i) = m.(!i) do decr i done;
  if top <> 0 || !i < 0 || r.(!i) > m.(!i) then begin
    (* a borrow out of the top limb cancels [top] *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = r.(i) - m.(i) - !borrow in
      r.(i) <- d land ctx.wmask;
      borrow := if d < 0 then 1 else 0
    done
  end

(* [r] <- a·b·R^-1 mod m, for a, b < m; [r] may be [a] or [b]. *)
let mont_mul ctx (a : int array) (b : int array) (r : int array) =
  let n = ctx.n and w = ctx.w and mask = ctx.wmask and m = ctx.m and m' = ctx.m' and u = ctx.u in
  let c = ref 0 in
  for k = 0 to n - 1 do
    let s = ref (!c + (a.(k) * b.(0))) in
    for i = 0 to k - 1 do
      s :=
        !s
        + (Array.unsafe_get a i * Array.unsafe_get b (k - i))
        + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    let uk = (!s land mask) * m' land mask in
    u.(k) <- uk;
    c := (!s + (uk * m.(0))) lsr w
  done;
  for k = n to (2 * n) - 2 do
    let s = ref !c in
    for i = k - n + 1 to n - 1 do
      s :=
        !s
        + (Array.unsafe_get a i * Array.unsafe_get b (k - i))
        + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    r.(k - n) <- !s land mask;
    c := !s lsr w
  done;
  r.(n - 1) <- !c land mask;
  final_subtract ctx r (!c lsr w)

(* [r] <- a²·R^-1 mod m, for a < m; [r] may be [a].  Column k's cross
   products are a_i·a_(k-i) for i < k - i, i.e. i <= (k - 1) asr 1; the
   loop over them also adds the u_i·m_(k-i) of those i, and x holds the
   cross sum until it is doubled. *)
let mont_sqr ctx (a : int array) (r : int array) =
  let n = ctx.n and w = ctx.w and mask = ctx.wmask and m = ctx.m and m' = ctx.m' and u = ctx.u in
  let c = ref 0 in
  for k = 0 to n - 1 do
    let half = (k - 1) asr 1 in
    let x = ref 0 and s = ref !c in
    for i = 0 to half do
      x := !x + (Array.unsafe_get a i * Array.unsafe_get a (k - i));
      s := !s + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    s := !s + (!x lsl 1);
    if k land 1 = 0 then s := !s + (a.(k lsr 1) * a.(k lsr 1));
    for i = half + 1 to k - 1 do
      s := !s + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    let uk = (!s land mask) * m' land mask in
    u.(k) <- uk;
    c := (!s + (uk * m.(0))) lsr w
  done;
  for k = n to (2 * n) - 2 do
    let half = (k - 1) asr 1 in
    let x = ref 0 and s = ref !c in
    for i = k - n + 1 to half do
      x := !x + (Array.unsafe_get a i * Array.unsafe_get a (k - i));
      s := !s + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    s := !s + (!x lsl 1);
    if k land 1 = 0 then s := !s + (a.(k lsr 1) * a.(k lsr 1));
    for i = half + 1 to n - 1 do
      s := !s + (Array.unsafe_get u i * Array.unsafe_get m (k - i))
    done;
    r.(k - n) <- !s land mask;
    c := !s lsr w
  done;
  r.(n - 1) <- !c land mask;
  final_subtract ctx r (!c lsr w)

(* 4-bit sliding-window exponentiation over Montgomery products.  Requires
   an odd modulus > 1. *)
let pow_mod_mont ~base:g ~exp ~modulus:m_nat =
  let ctx = mont_init m_nat in
  let n = ctx.n in
  let of_nat a = repack a ~src:limb_bits ~dst:ctx.w n in
  let product a b =
    let r = Array.make n 0 in
    mont_mul ctx a b r;
    r
  in
  (* the exponent's windows, most significant first: each runs from a set
     bit down to bit l, the widest run of <= 4 bits that ends on a set bit,
     and w is its (odd) value *)
  let rec windows_from i acc =
    if i < 0 then List.rev acc
    else if not (testbit exp i) then windows_from (i - 1) acc
    else begin
      let l = ref (max (i - 3) 0) in
      while not (testbit exp !l) do incr l done;
      let w = ref 0 in
      for j = i downto !l do
        w := (!w lsl 1) lor (if testbit exp j then 1 else 0)
      done;
      windows_from (!l - 1) ((!l, !w) :: acc)
    end
  in
  let windows = windows_from (num_bits exp - 1) [] in
  let gm = product (of_nat (rem g m_nat)) ctx.r2 in
  (* odd powers g^1, g^3, ... up to the largest window value, in Montgomery
     form: e = 65537 reads only g^1 *)
  let width = List.fold_left (fun acc (_, w) -> max acc ((w + 1) / 2)) 1 windows in
  let table = Array.make width gm in
  if width > 1 then begin
    let g2 = Array.make n 0 in
    mont_sqr ctx gm g2;
    for k = 1 to width - 1 do
      table.(k) <- product table.(k - 1) g2
    done
  end;
  let one_f = of_nat one in
  (* the accumulator starts as the first window's power, which is what
     squaring 1 (R mod m in-domain) through that window and multiplying the
     power in would give; then square once per bit, and multiply in each
     later window's power after its lowest bit *)
  let acc, next, windows =
    match windows with
    | (l, w) :: rest -> (Array.copy table.((w - 1) / 2), l - 1, rest)
    | [] -> (product ctx.r2 one_f, -1, []) (* exp = 0 *)
  in
  let next =
    List.fold_left
      (fun next (l, w) ->
        for _ = l to next do
          mont_sqr ctx acc acc
        done;
        mont_mul ctx acc table.((w - 1) / 2) acc;
        l - 1)
      next windows
  in
  for _ = 0 to next do
    mont_sqr ctx acc acc
  done;
  mont_mul ctx acc one_f acc;
  normalize (repack acc ~src:ctx.w ~dst:limb_bits (((n * ctx.w) + limb_bits - 1) / limb_bits))

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
