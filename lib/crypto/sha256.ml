(* SHA-256 (FIPS 180-4), implemented over native ints.

   Used for object digests, manifest file hashes, key identifiers, Merkle
   nodes and as the compression function inside HMAC / HMAC-DRBG.  The
   implementation is the straightforward 64-round schedule; throughput is
   measured in the bench suite.

   Every 32-bit word (state, message schedule, round constant) is held in
   an OCaml [int], so nothing is boxed.  This assumes 63-bit ints, as
   [Rpki_bignum.Nat] already does: a sum of up to seven words stays below
   2^35 and is masked back to 32 bits where its value is kept, and a
   rotation reads the word doubled into bits 0..62 (see [dbl]).  The
   [Int32] version this replaced is the test suite's oracle. *)

let mask = 0xffff_ffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  mutable h0 : int; mutable h1 : int; mutable h2 : int; mutable h3 : int;
  mutable h4 : int; mutable h5 : int; mutable h6 : int; mutable h7 : int;
  buf : Bytes.t;            (* pending partial block *)
  mutable buf_len : int;
  mutable total : int;      (* total bytes fed so far *)
  w : int array;            (* message schedule: per context, so Domains
                               hashing at once never share scratch *)
}

let init () =
  { h0 = 0x6a09e667; h1 = 0xbb67ae85; h2 = 0x3c6ef372; h3 = 0xa54ff53a;
    h4 = 0x510e527f; h5 = 0x9b05688c; h6 = 0x1f83d9ab; h7 = 0x5be0cd19;
    buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0 }

(* [dbl x] is the 32-bit word [x] twice over: bits 0..31 and, from the
   copy, bits 32..62 (a 63-bit int drops the copy's top bit).  Bits
   n..n+31 of it are [x] rotated right by n for every n <= 31, so a sigma
   XORs three right shifts of one [dbl] and masks once. *)
let dbl x = x lor (x lsl 32)

(* Process one 64-byte block starting at [off] in [block].  Loads and
   stores skip bounds checks.  Index invariant: [off + 64 <= Bytes.length
   block] ([feed] passes its 64-byte buffer at 0, or the input at a [pos]
   with at least 64 bytes left) and every byte load is at [off + 4t + j]
   with t <= 15 and j <= 3; [w] (made by [init]) and [k] hold 64 words
   and are read at 0..63.  [ch] and [maj] use the usual identities
   (e∧f)⊕(¬e∧g) = g⊕(e∧(f⊕g)) and (a∧b)⊕(a∧c)⊕(b∧c) = (a∧(b∨c))∨(b∧c). *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block i) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (i + 3)))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = dbl x and yy = dbl y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let a = ref ctx.h0 and b = ref ctx.h1 and c = ref ctx.h2 and d = ref ctx.h3 in
  let e = ref ctx.h4 and f = ref ctx.h5 and g = ref ctx.h6 and h = ref ctx.h7 in
  for t = 0 to 63 do
    let ee = dbl !e and aa = dbl !a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !h + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (!a land (!b lor !c)) lor (!b land !c) in
    h := !g; g := !f; f := !e; e := (!d + t1) land mask;
    d := !c; c := !b; b := !a; a := (t1 + s0 + maj) land mask
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask; ctx.h1 <- (ctx.h1 + !b) land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask; ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask; ctx.h5 <- (ctx.h5 + !f) land mask;
  ctx.h6 <- (ctx.h6 + !g) land mask; ctx.h7 <- (ctx.h7 + !h) land mask

let feed ctx s =
  let s = Bytes.unsafe_of_string s in
  let len = Bytes.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* fill a pending partial block first *)
  if ctx.buf_len > 0 then begin
    let need = min (64 - ctx.buf_len) len in
    Bytes.blit s 0 ctx.buf ctx.buf_len need;
    ctx.buf_len <- ctx.buf_len + need;
    pos := need;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let finish ctx =
  let bitlen = 8 * ctx.total in
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    if r = 0 then 1 + 8 else 1 + 8 + (64 - r)
  in
  let pad = Bytes.make pad_len '\x00' in
  Bytes.set pad 0 '\x80';
  (* the bit length, big-endian, in the last eight bytes *)
  for i = 0 to 7 do
    Bytes.set pad (pad_len - 1 - i) (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  feed ctx (Bytes.unsafe_to_string pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  let put i v =
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j) (Char.unsafe_chr ((v lsr (8 * (3 - j))) land 0xff))
    done
  in
  put 0 ctx.h0; put 1 ctx.h1; put 2 ctx.h2; put 3 ctx.h3;
  put 4 ctx.h4; put 5 ctx.h5; put 6 ctx.h6; put 7 ctx.h7;
  Bytes.unsafe_to_string out

(* One-shot digest of a string; result is 32 raw bytes. *)
let digest s =
  let ctx = init () in
  feed ctx s;
  finish ctx

(* Digest of a concatenation, streamed — H(a || b || ...) without building
   the concatenated string (domain-separated hashing feeds tag and payload
   as separate parts). *)
let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finish ctx

let hexdigest s = Rpki_util.Hex.of_string (digest s)
