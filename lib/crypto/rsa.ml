(* RSA signatures in the PKCS#1 v1.5 style, built on [Rpki_bignum].

   Production RPKI mandates RSA-2048 with SHA-256 (RFC 6485/7935).  We keep
   the same signature pipeline (DigestInfo wrapping, type-01 padding, modular
   exponentiation) at a configurable modulus size, defaulting to 512 bits so
   that building thousand-certificate hierarchies in tests stays cheap.  The
   substitution is documented in DESIGN.md. *)

open Rpki_bignum

(* [id] is the key's stable identifier, made once with the key: SHA-256 of
   its canonical encoding, analogous to the RPKI's Subject Key Identifier. *)
type public = { n : Nat.t; e : Nat.t; id : string }

let public ~n ~e =
  let nb = Nat.to_bytes_be n and eb = Nat.to_bytes_be e in
  let encoding = Printf.sprintf "%d:%s:%d:%s" (String.length nb) nb (String.length eb) eb in
  { n; e; id = Sha256.digest encoding }

(* The CRT form of the private exponent d: signing works mod p and mod q
   separately, so d itself is never stored. *)
type private_ = {
  pub : public;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t;  (* d mod (p-1) *)
  dq : Nat.t;  (* d mod (q-1) *)
  qinv : Nat.t;  (* q^-1 mod p *)
}

type keypair = { public : public; private_ : private_ }

let default_bits = 512

let modulus_bytes pub = (Nat.num_bits pub.n + 7) / 8

(* DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 notes). *)
let sha256_digest_info =
  "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

(* The narrowest encoded message: DigestInfo, the 32-byte digest and the 11
   bytes of 00 01 FF*8 00 framing. *)
let min_bytes = String.length sha256_digest_info + 32 + 11

let min_bits = 8 * min_bytes

(* Deterministic keygen from a DRBG-seeded RNG.  [Prime.pair] draws two
   candidates and proves them only once [keypair] keeps them: distinct, 65537
   invertible mod phi, and a modulus exactly [bits] wide (about 39% of pairs
   come out one bit short). *)
let generate ?(bits = default_bits) rng =
  if bits < min_bits then
    invalid_arg (Printf.sprintf "Rsa.generate: %d-bit modulus cannot carry SHA-256 PKCS#1 padding (min %d)" bits min_bits);
  let e = Nat.of_int 65537 in
  let half = bits / 2 in
  let keypair p q =
    if Nat.equal p q then None
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.pred p) (Nat.pred q) in
      match Zint.mod_inverse e ~modulus:phi with
      | None -> None
      | Some d ->
        if Nat.num_bits n <> bits then None
        else begin
          let pub = public ~n ~e in
          (* distinct primes are coprime, so q always has an inverse mod p *)
          let qinv = Option.get (Zint.mod_inverse q ~modulus:p) in
          let dp = Nat.rem d (Nat.pred p) and dq = Nat.rem d (Nat.pred q) in
          Some { public = pub; private_ = { pub; p; q; dp; dq; qinv } }
        end
    end
  in
  Prime.pair rng ~bits:(half, bits - half) ~keep:keypair

(* EMSA-PKCS1-v1_5 encoding of a message digest into [len] bytes. *)
let pkcs1_encode digest len =
  if len < min_bytes then invalid_arg "Rsa.pkcs1_encode: modulus too small";
  let t = sha256_digest_info ^ digest in
  "\x00\x01" ^ String.make (len - String.length t - 3) '\xff' ^ "\x00" ^ t

(* em^d mod n by the Chinese Remainder Theorem: two half-width
   exponentiations, m1 = em^dp mod p and m2 = em^dq mod q, recombined with
   Garner's formula s = m2 + q·(qinv·(m1 - m2) mod p).  The difference is
   taken as m1 + (p - m2 mod p) to stay non-negative; m2 < q may exceed p. *)
let sign ~key msg =
  let len = modulus_bytes key.pub in
  let em = Nat.of_bytes_be (pkcs1_encode (Sha256.digest msg) len) in
  let m1 = Nat.pow_mod ~base:em ~exp:key.dp ~modulus:key.p in
  let m2 = Nat.pow_mod ~base:em ~exp:key.dq ~modulus:key.q in
  let diff = Nat.add m1 (Nat.sub key.p (Nat.rem m2 key.p)) in
  let h = Nat.rem (Nat.mul key.qinv diff) key.p in
  Nat.to_bytes_be_padded (Nat.add m2 (Nat.mul key.q h)) len

(* Global count of RSA verifications actually performed — the ground truth
   the multi-vantage benchmark audits cache-on and cache-off runs against.
   Atomic, because a gossip round checks tree heads on several Domains. *)
let verifications = Atomic.make 0

let verification_count () = Atomic.get verifications

let max_bits = 4096
let f4 = Nat.of_int 65537

(* Keys come from decoders that accept any integers, so a key outside the
   profile is an ordinary rejection, checked before any conversion or
   exponentiation: a modulus too narrow to hold the encoding, one wider
   than [max_bits] (the exponentiation's cost grows much faster than the
   width, so a hostile key would buy the sender the verifier's time), or
   an exponent other than 65537. *)
let verify ~key ~signature msg =
  Atomic.incr verifications;
  let len = modulus_bytes key in
  if len < min_bytes || Nat.num_bits key.n > max_bits || not (Nat.equal key.e f4) then false
  else if String.length signature <> len then false
  else begin
    let s = Nat.of_bytes_be signature in
    if not (Nat.lt s key.n) then false
    else begin
      let em = Nat.pow_mod ~base:s ~exp:key.e ~modulus:key.n in
      let expected = Nat.of_bytes_be (pkcs1_encode (Sha256.digest msg) len) in
      Nat.equal em expected
    end
  end

let key_id pub = pub.id

let equal_public a b = Nat.equal a.n b.n && Nat.equal a.e b.e
