(* The Int32 SHA-256 (FIPS 180-4) that the library shipped before it moved
   to native ints: the oracle the test suite checks [Rpki_crypto.Sha256]
   against.  Kept as written, boxed 32-bit words and all; nothing outside
   the tests uses it. *)
let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
     0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
     0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
     0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
     0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
     0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
     0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
     0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
     0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type ctx = {
  mutable h0 : int32; mutable h1 : int32; mutable h2 : int32; mutable h3 : int32;
  mutable h4 : int32; mutable h5 : int32; mutable h6 : int32; mutable h7 : int32;
  buf : Bytes.t;            (* pending partial block *)
  mutable buf_len : int;
  mutable total : int;      (* total bytes fed so far *)
  w : int32 array;          (* message schedule: per context, so Domains
                               hashing at once never share scratch *)
}

let init () =
  { h0 = 0x6a09e667l; h1 = 0xbb67ae85l; h2 = 0x3c6ef372l; h3 = 0xa54ff53al;
    h4 = 0x510e527fl; h5 = 0x9b05688cl; h6 = 0x1f83d9abl; h7 = 0x5be0cd19l;
    buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0l }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand

(* Process one 64-byte block starting at [off] in [block]. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      Int32.logor
        (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block i))) 24)
        (Int32.logor
           (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block (i + 1)))) 16)
           (Int32.logor
              (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block (i + 2)))) 8)
              (Int32.of_int (Char.code (Bytes.get block (i + 3))))))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 ^% rotr w.(t - 15) 18 ^% Int32.shift_right_logical w.(t - 15) 3 in
    let s1 = rotr w.(t - 2) 17 ^% rotr w.(t - 2) 19 ^% Int32.shift_right_logical w.(t - 2) 10 in
    w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
  done;
  let a = ref ctx.h0 and b = ref ctx.h1 and c = ref ctx.h2 and d = ref ctx.h3 in
  let e = ref ctx.h4 and f = ref ctx.h5 and g = ref ctx.h6 and h = ref ctx.h7 in
  for t = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (Int32.lognot !e &% !g) in
    let t1 = !h +% s1 +% ch +% k.(t) +% w.(t) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let t2 = s0 +% maj in
    h := !g; g := !f; f := !e; e := !d +% t1;
    d := !c; c := !b; b := !a; a := t1 +% t2
  done;
  ctx.h0 <- ctx.h0 +% !a; ctx.h1 <- ctx.h1 +% !b;
  ctx.h2 <- ctx.h2 +% !c; ctx.h3 <- ctx.h3 +% !d;
  ctx.h4 <- ctx.h4 +% !e; ctx.h5 <- ctx.h5 +% !f;
  ctx.h6 <- ctx.h6 +% !g; ctx.h7 <- ctx.h7 +% !h

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
  let bitlen = Int64.of_int (8 * ctx.total) in
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    if r = 0 then 1 + 8 else 1 + 8 + (64 - r)
  in
  let pad = Bytes.make (pad_len - 8) '\x00' in
  Bytes.set pad 0 '\x80';
  feed ctx (Bytes.to_string pad);
  let lenb = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set lenb i
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen (8 * (7 - i))) 0xffL)))
  done;
  feed ctx (Bytes.to_string lenb);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  let put i v =
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j)
        (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - j))) 0xffl)))
    done
  in
  put 0 ctx.h0; put 1 ctx.h1; put 2 ctx.h2; put 3 ctx.h3;
  put 4 ctx.h4; put 5 ctx.h5; put 6 ctx.h6; put 7 ctx.h7;
  Bytes.to_string out

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

