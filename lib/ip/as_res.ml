(* Autonomous-system-number resources.

   RFC 3779 certificates carry AS-number sets alongside IP resources.  AS
   numbers are 32-bit, so we reuse the generic range/set machinery over a
   trivial "address" family that prints plain integers. *)

module As_num : Addr.S with type t = int = struct
  type t = int

  let bits = 32
  let zero = 0
  let max_addr = 0xFFFFFFFF
  let compare = Int.compare
  let equal = Int.equal
  let succ a = a + 1
  let pred a = a - 1
  let testbit a i = (a lsr (31 - i)) land 1 = 1
  let host_mask len = if len >= 32 then 0 else (1 lsl (32 - len)) - 1
  let network a len = a land lnot (host_mask len) land max_addr
  let broadcast a len = a lor host_mask len
  let set_bit a i = a lor (1 lsl (31 - i))
  let to_string = string_of_int

  let of_string s =
    match int_of_string_opt s with
    | Some v when v >= 0 && v <= max_addr -> Some v
    | _ -> None
end

include Prefix_set.Make (As_num)

let singleton asn = Set.of_range (Range.make asn asn)
let of_list asns = Set.of_ranges (List.map (fun a -> Range.make a a) asns)
let mem set asn = Set.mem_addr set asn
