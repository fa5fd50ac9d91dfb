(* IP addresses, generically.

   Everything downstream (prefixes, ranges, resource sets, tries) is written
   against [S] so that IPv4 and IPv6 share one implementation.  IPv4
   addresses live in a native int (32 bits fit easily in OCaml's 63-bit
   ints); IPv6 addresses are a pair of int64s. *)

module type S = sig
  type t

  val bits : int
  (** address width in bits: 32 or 128 *)

  val zero : t
  val max_addr : t
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val succ : t -> t
  (** next address; [succ max_addr] is undefined, callers guard with compare *)

  val pred : t -> t

  val testbit : t -> int -> bool
  (** [testbit a i] is bit [i] counting from the most significant bit (i=0) *)

  val network : t -> int -> t
  (** [network a len] clears all but the top [len] bits *)

  val broadcast : t -> int -> t
  (** [network a len] with all host bits set *)

  val set_bit : t -> int -> t
  (** set bit [i] (MSB-first index) *)

  val to_string : t -> string
  val of_string : string -> t option
end

module V4 : S with type t = int = struct
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

  let to_string a =
    Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
      ((a lsr 8) land 0xff) (a land 0xff)

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
      try
        let parse x =
          if x = "" || String.length x > 3 then failwith "octet";
          String.iter (fun c -> if c < '0' || c > '9' then failwith "octet") x;
          let v = int_of_string x in
          if v > 255 then failwith "octet" else v
        in
        Some ((parse a lsl 24) lor (parse b lsl 16) lor (parse c lsl 8) lor parse d)
      with _ -> None)
    | _ -> None
end

module V6 : S with type t = int64 * int64 = struct
  type t = int64 * int64 (* (high 64 bits, low 64 bits) *)

  let bits = 128
  let zero = (0L, 0L)
  let max_addr = (-1L, -1L)

  (* int64 comparison treating values as unsigned *)
  let ucmp a b = Int64.unsigned_compare a b

  let compare (ah, al) (bh, bl) =
    let c = ucmp ah bh in
    if c <> 0 then c else ucmp al bl

  let equal a b = compare a b = 0

  let succ (h, l) = if l = -1L then (Int64.add h 1L, 0L) else (h, Int64.add l 1L)
  let pred (h, l) = if l = 0L then (Int64.sub h 1L, -1L) else (h, Int64.sub l 1L)

  let testbit (h, l) i =
    if i < 64 then Int64.logand (Int64.shift_right_logical h (63 - i)) 1L = 1L
    else Int64.logand (Int64.shift_right_logical l (127 - i)) 1L = 1L

  (* mask with the top [len] bits of a 64-bit word set *)
  let top_mask len =
    if len <= 0 then 0L else if len >= 64 then -1L else Int64.shift_left (-1L) (64 - len)

  let network (h, l) len = (Int64.logand h (top_mask len), Int64.logand l (top_mask (len - 64)))

  let broadcast (h, l) len =
    (Int64.logor h (Int64.lognot (top_mask len)), Int64.logor l (Int64.lognot (top_mask (len - 64))))

  let set_bit (h, l) i =
    if i < 64 then (Int64.logor h (Int64.shift_left 1L (63 - i)), l)
    else (h, Int64.logor l (Int64.shift_left 1L (127 - i)))

  let group (h, l) i =
    (* 16-bit group [i] of 8, left to right *)
    let word = if i < 4 then h else l in
    let sh = 48 - (16 * (i mod 4)) in
    Int64.to_int (Int64.logand (Int64.shift_right_logical word sh) 0xffffL)

  let to_string a =
    (* canonical RFC 5952-ish: compress the longest zero run *)
    let groups = Array.init 8 (group a) in
    let best_start = ref (-1) and best_len = ref 0 in
    let i = ref 0 in
    while !i < 8 do
      if groups.(!i) = 0 then begin
        let j = ref !i in
        while !j < 8 && groups.(!j) = 0 do incr j done;
        if !j - !i > !best_len then begin
          best_len := !j - !i;
          best_start := !i
        end;
        i := !j
      end
      else incr i
    done;
    if !best_len < 2 then
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%x") groups))
    else begin
      let part lo hi =
        String.concat ":"
          (List.filter_map
             (fun k -> if k >= lo && k < hi then Some (Printf.sprintf "%x" groups.(k)) else None)
             [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      in
      part 0 !best_start ^ "::" ^ part (!best_start + !best_len) 8
    end

  let parse_group g =
    if g = "" || String.length g > 4 then None
    else begin
      let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) g in
      if not ok then None else Some (int_of_string ("0x" ^ g))
    end

  let build groups =
    if List.length groups <> 8 then None
    else begin
      let arr = Array.of_list groups in
      let word lo =
        let w = ref 0L in
        for k = lo to lo + 3 do
          w := Int64.logor (Int64.shift_left !w 16) (Int64.of_int arr.(k))
        done;
        !w
      in
      Some (word 0, word 4)
    end

  let all_some l =
    List.fold_right
      (fun x acc -> match (x, acc) with Some v, Some a -> Some (v :: a) | _ -> None)
      l (Some [])

  (* Split a textual v6 address on an optional single "::" and expand the
     elided zero groups. *)
  let of_string s =
    let split_groups part =
      if part = "" then Some [] else all_some (List.map parse_group (String.split_on_char ':' part))
    in
    let find_double s =
      let n = String.length s in
      let rec go i = if i + 1 >= n then None else if s.[i] = ':' && s.[i + 1] = ':' then Some i else go (i + 1) in
      go 0
    in
    match find_double s with
    | None -> (
      match split_groups s with
      | Some gs when List.length gs = 8 -> build gs
      | _ -> None)
    | Some i -> (
      let left = String.sub s 0 i in
      let right = String.sub s (i + 2) (String.length s - i - 2) in
      (* a second "::" is illegal *)
      if find_double right <> None then None
      else
        match (split_groups left, split_groups right) with
        | Some l, Some r when List.length l + List.length r < 8 ->
          let fill = List.init (8 - List.length l - List.length r) (fun _ -> 0) in
          build (l @ fill @ r)
        | _ -> None)
end
