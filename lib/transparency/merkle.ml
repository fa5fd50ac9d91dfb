(* RFC 6962-style Merkle hash trees over Rpki_crypto.Sha256.

   Domain-separated hashing (section 2.1): H(0x00 || leaf) for leaves,
   H(0x01 || l || r) for interior nodes, split at the largest power of two
   strictly below the subtree size.

   In an append-only tree a complete subtree never changes, so each one is
   hashed once, when its last leaf arrives, and kept: level 0 holds the leaf
   hashes, level j the root of every complete subtree of 2^j leaves aligned
   at a multiple of 2^j.  The RFC recursion only ever asks for a
   power-of-two range at a multiple of its size, so it reads those from the
   levels and splits only along the ragged right edge: roots and proofs at
   any past size cost O(log n) node hashes. *)

module Sha256 = Rpki_crypto.Sha256

let leaf_hash l = Sha256.digest_list [ "\x00"; l ]
let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]

(* Largest power of two strictly below n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

type t = {
  mutable levels : string array array;  (* levels.(j).(i): leaves [i·2^j, (i+1)·2^j) *)
  mutable count : int;
  mutable last_root : int * string;
      (* the root [root] last computed and the size it was computed at *)
}

let create () = { levels = [||]; count = 0; last_root = (-1, "") }

let size t = t.count

(* Store [h] as node [i] of level [j], growing the level (or the level
   array) by doubling. *)
let store t j i h =
  if j = Array.length t.levels then t.levels <- Array.append t.levels [| Array.make 8 "" |];
  let a = t.levels.(j) in
  if i = Array.length a then begin
    let b = Array.make (2 * i) "" in
    Array.blit a 0 b 0 i;
    t.levels.(j) <- b
  end;
  t.levels.(j).(i) <- h

(* Leaf [i] completes one subtree per trailing one bit of [i]: while the
   node just stored is a right child, hash it with its left sibling into
   their parent. *)
let add t l =
  let i = t.count in
  store t 0 i (leaf_hash l);
  let j = ref 0 and k = ref i in
  while !k land 1 = 1 do
    let level = t.levels.(!j) in
    let parent = node_hash level.(!k - 1) level.(!k) in
    incr j;
    k := !k lsr 1;
    store t !j !k parent
  done;
  t.count <- i + 1;
  i

let log2 n =
  let j = ref 0 in
  while 1 lsl !j < n do
    incr j
  done;
  !j

(* MTH over leaves [lo, lo+n).  A power-of-two range is always aligned here
   (lo is a multiple of n), so it is a stored complete subtree. *)
let rec mth t lo n =
  if n = 0 then Sha256.digest ""
  else if n land (n - 1) = 0 then t.levels.(log2 n).(lo / n)
  else
    let k = split_point n in
    node_hash (mth t lo k) (mth t (lo + k) (n - k))

let root_at t ~size =
  if size < 0 || size > t.count then invalid_arg "Merkle.root_at: size out of range";
  mth t 0 size

(* The current root, computed once per tree size: a log asked for its head
   several times between appends hashes its right edge once. *)
let root t =
  match t.last_root with
  | n, r when n = t.count -> r
  | _ ->
    let r = mth t 0 t.count in
    t.last_root <- (t.count, r);
    r

type proof = string list

let proof_bytes p = 32 * List.length p

(* PATH(m, D[lo, lo+n)), leaf-to-root order. *)
let rec path t m lo n =
  if n <= 1 then []
  else
    let k = split_point n in
    if m < k then path t m lo k @ [ mth t (lo + k) (n - k) ]
    else path t (m - k) (lo + k) (n - k) @ [ mth t lo k ]

let inclusion_proof t ~index ~size =
  if size < 1 || size > t.count then invalid_arg "Merkle.inclusion_proof: size out of range";
  if index < 0 || index >= size then invalid_arg "Merkle.inclusion_proof: index out of range";
  path t index 0 size

(* RFC 6962 section 2.1.1 verification: walk the path combining left or
   right according to the index bits, tracking the subtree extent. *)
let verify_inclusion ~leaf ~index ~size ~root proof =
  if index < 0 || size < 1 || index >= size then false
  else begin
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (leaf_hash leaf) in
    let ok = ref true in
    List.iter
      (fun c ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || !fn = !sn then begin
            r := node_hash c !r;
            if !fn land 1 = 0 then
              while !fn land 1 = 0 && !fn <> 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
          end
          else r := node_hash !r c;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && String.equal !r root
  end

(* SUBPROOF(m, D[lo, lo+n), flag), RFC 6962 section 2.1.2. *)
let rec subproof t m lo n flag =
  if m = n then if flag then [] else [ mth t lo n ]
  else
    let k = split_point n in
    if m <= k then subproof t m lo k flag @ [ mth t (lo + k) (n - k) ]
    else subproof t (m - k) (lo + k) (n - k) false @ [ mth t lo k ]

let consistency_proof t ~old_size ~size =
  if size > t.count then invalid_arg "Merkle.consistency_proof: size out of range";
  if old_size < 1 || old_size > size then
    invalid_arg "Merkle.consistency_proof: old_size out of range";
  if old_size = size then [] else subproof t old_size 0 size true

(* RFC 6962 section 2.1.2 / RFC 9162 section 2.1.4.2 verification. *)
let verify_consistency ~old_size ~old_root ~size ~root proof =
  if old_size < 0 || old_size > size then false
  else if old_size = 0 then proof = []
  else if old_size = size then proof = [] && String.equal old_root root
  else begin
    (* when old_size is an exact power of two, the old root itself seeds
       the walk and is not repeated inside the proof *)
    let proof = if old_size land (old_size - 1) = 0 then old_root :: proof else proof in
    match proof with
    | [] -> false
    | seed :: rest ->
      let fn = ref (old_size - 1) and sn = ref (size - 1) in
      while !fn land 1 = 1 do
        fn := !fn lsr 1;
        sn := !sn lsr 1
      done;
      let fr = ref seed and sr = ref seed in
      let ok = ref true in
      List.iter
        (fun c ->
          if !sn = 0 then ok := false
          else begin
            if !fn land 1 = 1 || !fn = !sn then begin
              fr := node_hash c !fr;
              sr := node_hash c !sr;
              if !fn land 1 = 0 then
                while !fn land 1 = 0 && !fn <> 0 do
                  fn := !fn lsr 1;
                  sn := !sn lsr 1
                done
            end
            else sr := node_hash !sr c;
            fn := !fn lsr 1;
            sn := !sn lsr 1
          end)
        rest;
      !ok && !sn = 0 && String.equal !fr old_root && String.equal !sr root
  end

(* Both checks are pure functions of their arguments, so a verdict keyed by
   every argument is the verdict a fresh check would return.  The key is the
   argument tuple itself (structural hashing and equality): no encoding to
   build, and an equivocator's forked log, having another root, lands on
   another entry. *)
module Verdicts = struct
  type key =
    | Inclusion of string * int * int * string * proof
    | Consistency of int * string * int * string * proof

  type t = { table : (key, bool) Hashtbl.t; mutable computed : int }

  let create () = { table = Hashtbl.create 64; computed = 0 }
  let computed t = t.computed

  let lookup t key check =
    match Hashtbl.find_opt t.table key with
    | Some ok -> ok
    | None ->
      let ok = check () in
      t.computed <- t.computed + 1;
      Hashtbl.replace t.table key ok;
      ok

  let verify_inclusion t ~leaf ~index ~size ~root proof =
    lookup t (Inclusion (leaf, index, size, root, proof)) (fun () ->
        verify_inclusion ~leaf ~index ~size ~root proof)

  let verify_consistency t ~old_size ~old_root ~size ~root proof =
    lookup t (Consistency (old_size, old_root, size, root, proof)) (fun () ->
        verify_consistency ~old_size ~old_root ~size ~root proof)
end
