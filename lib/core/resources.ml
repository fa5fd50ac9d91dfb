(* The resource bundle carried by a certificate: IPv4 + IPv6 address space
   and AS numbers, per RFC 3779.  The containment partial order on these
   bundles is what the RPKI's "principle of least privilege" enforces — and
   what the whacking attacks manipulate. *)

open Rpki_ip

type t = {
  v4 : V4.Set.t;
  v6 : V6.Set.t;
  asns : As_res.Set.t;
}

let empty = { v4 = V4.Set.empty; v6 = V6.Set.empty; asns = As_res.Set.empty }

let make ?(v4 = V4.Set.empty) ?(v6 = V6.Set.empty) () = { v4; v6; asns = As_res.Set.empty }

let of_v4_strings strs = { empty with v4 = V4.set_of_strings strs }

let is_empty t = V4.Set.is_empty t.v4 && V6.Set.is_empty t.v6 && As_res.Set.is_empty t.asns

let subset a b =
  V4.Set.subset a.v4 b.v4 && V6.Set.subset a.v6 b.v6 && As_res.Set.subset a.asns b.asns

let equal a b = V4.Set.equal a.v4 b.v4 && V6.Set.equal a.v6 b.v6 && As_res.Set.equal a.asns b.asns

let union a b =
  { v4 = V4.Set.union a.v4 b.v4; v6 = V6.Set.union a.v6 b.v6; asns = As_res.Set.union a.asns b.asns }

let inter a b =
  { v4 = V4.Set.inter a.v4 b.v4; v6 = V6.Set.inter a.v6 b.v6; asns = As_res.Set.inter a.asns b.asns }

let diff a b =
  { v4 = V4.Set.diff a.v4 b.v4; v6 = V6.Set.diff a.v6 b.v6; asns = As_res.Set.diff a.asns b.asns }

let overlaps a b = not (is_empty (inter a b))

(* The part of [a] that exceeds [b]; empty iff [subset a b]. *)
let overclaim ~claimed ~allowed = diff claimed allowed

let to_string t =
  let parts = ref [] in
  if not (As_res.Set.is_empty t.asns) then parts := ("AS " ^ As_res.Set.to_string t.asns) :: !parts;
  if not (V6.Set.is_empty t.v6) then parts := V6.Set.to_string t.v6 :: !parts;
  if not (V4.Set.is_empty t.v4) then parts := V4.Set.to_string t.v4 :: !parts;
  if !parts = [] then "(empty)" else String.concat "; " !parts

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* --- DER encoding --- *)

open Rpki_asn

(* Decoders check every value before a raising constructor sees it: a
   hostile object becomes a [Der.Decode_error], never an exception that
   escapes the relying party. *)
let uint32_of_der d =
  let v = Der.to_int_exn d in
  if v > 0xFFFFFFFF then Der.decode_error "value %d is wider than 32 bits" v;
  v

let ordered compare what lo hi =
  if compare lo hi > 0 then Der.decode_error "%s range ends before it starts" what

let der_of_v4_range (r : V4.Range.t) =
  Der.Sequence [ Der.int_ (V4.Range.lo r); Der.int_ (V4.Range.hi r) ]

let v4_range_of_der d =
  match d with
  | Der.Sequence [ lo; hi ] ->
    let lo = uint32_of_der lo and hi = uint32_of_der hi in
    ordered Int.compare "v4" lo hi;
    V4.Range.make lo hi
  | _ -> Der.decode_error "bad v4 range"

let nat_of_v6 ((h, l) : Rpki_ip.Addr.V6.t) =
  let open Rpki_bignum in
  let of64 x =
    Nat.add
      (Nat.shift_left (Nat.of_int (Int64.to_int (Int64.shift_right_logical x 32))) 32)
      (Nat.of_int (Int64.to_int (Int64.logand x 0xFFFFFFFFL)))
  in
  Nat.add (Nat.shift_left (of64 h) 64) (of64 l)

let v6_of_nat n =
  let open Rpki_bignum in
  if Nat.num_bits n > 128 then Der.decode_error "IPv6 value wider than 128 bits";
  let to64 n =
    let hi = Nat.to_int_exn (Nat.shift_right n 32) in
    let lo = Nat.to_int_exn (Nat.rem n (Nat.shift_left Nat.one 32)) in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  in
  let low64 = Nat.rem n (Nat.shift_left Nat.one 64) in
  let high64 = Nat.shift_right n 64 in
  (to64 high64, to64 low64)

let der_of_v6_range (r : V6.Range.t) =
  Der.Sequence [ Der.Integer (nat_of_v6 (V6.Range.lo r)); Der.Integer (nat_of_v6 (V6.Range.hi r)) ]

let v6_range_of_der d =
  match d with
  | Der.Sequence [ Der.Integer lo; Der.Integer hi ] ->
    let lo = v6_of_nat lo and hi = v6_of_nat hi in
    ordered Addr.V6.compare "v6" lo hi;
    V6.Range.make lo hi
  | _ -> Der.decode_error "bad v6 range"

let der_of_as_range (r : As_res.Range.t) =
  Der.Sequence [ Der.int_ (As_res.Range.lo r); Der.int_ (As_res.Range.hi r) ]

let as_range_of_der d =
  match d with
  | Der.Sequence [ lo; hi ] ->
    let lo = uint32_of_der lo and hi = uint32_of_der hi in
    ordered Int.compare "AS" lo hi;
    As_res.Range.make lo hi
  | _ -> Der.decode_error "bad AS range"

let to_der t =
  Der.Sequence
    [ Der.Context (1, List.map der_of_v4_range (V4.Set.to_ranges t.v4));
      Der.Context (2, List.map der_of_v6_range (V6.Set.to_ranges t.v6));
      Der.Context (3, List.map der_of_as_range (As_res.Set.to_ranges t.asns)) ]

let of_der d =
  match d with
  | Der.Sequence [ Der.Context (1, v4s); Der.Context (2, v6s); Der.Context (3, ass) ] ->
    { v4 = V4.Set.of_ranges (List.map v4_range_of_der v4s);
      v6 = V6.Set.of_ranges (List.map v6_range_of_der v6s);
      asns = As_res.Set.of_ranges (List.map as_range_of_der ass) }
  | _ -> Der.decode_error "bad resources"
