(* Validated ROA Payloads: the (prefix, max length, origin AS) triples that
   survive validation and drive route-origin validation (RFC 6811 calls the
   set of these the "VRP set"). *)

open Rpki_ip

type t = { prefix : V4.Prefix.t; max_len : int; asn : int }

let make ?max_len prefix asn =
  let max_len = Option.value max_len ~default:(V4.Prefix.len prefix) in
  if max_len < V4.Prefix.len prefix || max_len > 32 then invalid_arg "Vrp.make: bad max_len";
  if asn < 0 || asn > 0xFFFF_FFFF then invalid_arg "Vrp.make: ASN outside 0..2^32-1";
  { prefix; max_len; asn }

let compare a b =
  let c = V4.Prefix.compare a.prefix b.prefix in
  if c <> 0 then c
  else begin
    let c = Int.compare a.max_len b.max_len in
    if c <> 0 then c else Int.compare a.asn b.asn
  end

let equal a b = compare a b = 0

let of_roa (roa : Roa.t) =
  List.map (fun (e : Roa.v4_entry) -> { prefix = e.Roa.prefix; max_len = e.Roa.max_len; asn = roa.Roa.asid }) roa.Roa.v4_entries

let normalize vrps = List.sort_uniq compare vrps

type diff = { added : t list; removed : t list }

let empty_diff = { added = []; removed = [] }
let diff_is_empty d = d.added = [] && d.removed = []
let diff_size d = List.length d.added + List.length d.removed

(* Sorted-merge set difference in both directions: O(|before| + |after|). *)
let diff_of ~before ~after =
  let rec go before after added removed =
    match (before, after) with
    | [], [] -> { added = List.rev added; removed = List.rev removed }
    | [], a :: rest -> go [] rest (a :: added) removed
    | b :: rest, [] -> go rest [] added (b :: removed)
    | b :: brest, a :: arest ->
      let c = compare b a in
      if c = 0 then go brest arest added removed
      else if c < 0 then go brest after added (b :: removed)
      else go before arest (a :: added) removed
  in
  go before after [] []

(* Patch a sorted set: drop [removed], merge in [added]. *)
let apply_diff set d =
  let rec drop set removed =
    match (set, removed) with
    | _, [] | [], _ -> set
    | s :: srest, r :: rrest ->
      let c = compare s r in
      if c = 0 then drop srest rrest
      else if c < 0 then s :: drop srest removed
      else drop set rrest
  in
  let rec merge set added =
    match (set, added) with
    | _, [] -> set
    | [], _ -> added
    | s :: srest, a :: arest ->
      let c = compare s a in
      if c = 0 then s :: merge srest arest
      else if c < 0 then s :: merge srest added
      else a :: merge set arest
  in
  merge (drop set d.removed) d.added

let invert_diff d = { added = d.removed; removed = d.added }

(* FNV-1a over the sorted triples: order-independent once normalized, cheap
   enough to run on every publish.  A plumbing guard, not a MAC. *)
let fingerprint vrps =
  let prime = 0x100000001b3L in
  let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) prime in
  List.fold_left
    (fun h v ->
      mix (mix (mix h (V4.Prefix.addr v.prefix lor (V4.Prefix.len v.prefix lsl 32))) v.max_len)
        v.asn)
    0xcbf29ce484222325L vrps

let to_string t =
  if t.max_len = V4.Prefix.len t.prefix then
    Printf.sprintf "(%s, AS%d)" (V4.Prefix.to_string t.prefix) t.asn
  else Printf.sprintf "(%s-%d, AS%d)" (V4.Prefix.to_string t.prefix) t.max_len t.asn
