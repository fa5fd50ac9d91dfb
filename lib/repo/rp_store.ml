(* The relying party's persisted-state format.  What survives a restart is
   exactly the anti-rollback baseline: the transparency log (replayed
   observation by observation), the signed tree head it must still be
   consistent with, the last gossip-verified peer heads, the last-good
   effective VRP set (so the RTR serial line can continue), and the RTR
   serial itself.  Caches, memos and grace memory are deliberately not
   persisted — they are re-derivable and carry no evidence.

   Every record kind is written and read here, by the base and segment
   writers and the one chain reader.  None of it needs a vantage;
   {!Relying_party.restore} adds the two checks bound to one, its name and
   its key. *)

open Rpki_core
module Tlog = Rpki_transparency.Log
module Der = Rpki_asn.Der
module Codec = Rpki_persist.Codec

(* The log id of a vantage's incarnation: epoch 0 keeps the vantage name,
   later incarnations are visibly distinct logs. *)
let log_id ~name ~epoch = if epoch = 0 then name else Printf.sprintf "%s/e%d" name epoch

exception Restore_error of string

let restore_error fmt = Printf.ksprintf (fun s -> raise (Restore_error s)) fmt

let vrp_to_der (v : Vrp.t) =
  Der.Sequence
    [ Der.int_ (Rpki_ip.V4.Prefix.addr v.Vrp.prefix);
      Der.int_ (Rpki_ip.V4.Prefix.len v.Vrp.prefix);
      Der.int_ v.Vrp.max_len;
      Der.int_ v.Vrp.asn ]

(* The address and the origin are 32-bit fields, bounded as the ROA
   decoder bounds them: a wider value is refused, never truncated. *)
let vrp_of_der = function
  | Der.Sequence
      [ (Der.Integer _ as a); (Der.Integer _ as l); (Der.Integer _ as m);
        (Der.Integer _ as s) ] ->
    Vrp.make ~max_len:(Der.to_int_exn m)
      (Rpki_ip.V4.Prefix.make (Resources.uint32_of_der a) (Der.to_int_exn l))
      (Resources.uint32_of_der s)
  | _ -> restore_error "VRP record is not an integer quadruple"

let record kind payload = { Codec.r_kind = kind; r_payload = payload }

let is_kind kind (r : Codec.record) = String.equal r.Codec.r_kind kind

(* The VRP set travels in one of two records: [vrps], the whole set, in
   every base; [vrps-diff], (added, removed) against the set the chain held
   before, in a segment whose save saw the set change.  A segment of a tick
   with no change carries neither. *)
let vrps_record vrps = record "vrps" (Der.encode (Der.Sequence (List.map vrp_to_der vrps)))

let vrps_diff_record (d : Vrp.diff) =
  record "vrps-diff"
    (Der.encode
       (Der.Sequence
          [ Der.Sequence (List.map vrp_to_der d.Vrp.added);
            Der.Sequence (List.map vrp_to_der d.Vrp.removed) ]))

let vrp_list_of_der = function
  | Der.Sequence vs -> Vrp.normalize (List.map vrp_of_der vs)
  | _ -> restore_error "VRP list is not a sequence"

let vrps_of_record (r : Codec.record) =
  match (r.Codec.r_kind, Der.decode r.Codec.r_payload) with
  | "vrps", Ok l -> `Set (vrp_list_of_der l)
  | "vrps-diff", Ok (Der.Sequence [ added; removed ]) ->
    `Diff { Vrp.added = vrp_list_of_der added; removed = vrp_list_of_der removed }
  | kind, _ -> restore_error "malformed %s record" kind

(* [Vrp.apply_diff], refusing a diff that was not taken against [set]:
   every removed VRP must be present and every added one absent, which
   holds exactly when the diff from [set] to the result is the diff given.
   Chained diffs that do not compose fail closed. *)
let apply_vrp_diff set (d : Vrp.diff) =
  let after = Vrp.apply_diff set d in
  let d' = Vrp.diff_of ~before:set ~after in
  if
    not
      (List.equal Vrp.equal d'.Vrp.added d.Vrp.added
       && List.equal Vrp.equal d'.Vrp.removed d.Vrp.removed)
  then restore_error "VRP diff does not apply to the set before it";
  after

(* The normalized VRP set a chain restores to: the base's full set, then
   each segment's diff in chain order.  The base carries exactly one [vrps]
   record and each segment at most one [vrps-diff]; any other shape is
   refused. *)
let chain_vrps = function
  | [] -> restore_error "empty chain"
  | base :: segments ->
    let vrp_records = List.filter (fun r -> is_kind "vrps" r || is_kind "vrps-diff" r) in
    let base_set =
      match List.map vrps_of_record (vrp_records base) with
      | [ `Set s ] -> s
      | [] -> restore_error "base container missing its VRP set"
      | _ -> restore_error "base container carries a VRP record other than one full set"
    in
    List.fold_left
      (fun set segment ->
        match List.map vrps_of_record (vrp_records segment) with
        | [] -> set
        | [ `Diff d ] -> apply_vrp_diff set d
        | _ -> restore_error "segment carries a VRP record other than one diff")
      base_set segments

(* The Merkle checkpoint a segment is sealed under: the previous persisted
   head plus the consistency proof from it to the head the segment carries.
   Restore walks these from base through every segment — a chain that does
   not prove one append-only history is refused wholesale. *)
let encode_checkpoint ~prev ~proof =
  Der.encode
    (Der.Sequence
       [ Der.Octet_string (Tlog.encode_head prev);
         Der.Sequence (List.map (fun h -> Der.Octet_string h) proof) ])

let decode_checkpoint payload =
  match Der.decode payload with
  | Ok (Der.Sequence [ Der.Octet_string prev; Der.Sequence hashes ]) -> (
    let proof =
      List.map
        (function
          | Der.Octet_string h -> h
          | _ -> raise (Restore_error "malformed checkpoint proof"))
        hashes
    in
    match Tlog.decode_head prev with
    | Some h -> (h, proof)
    | None -> raise (Restore_error "malformed checkpoint head"))
  | _ -> raise (Restore_error "malformed checkpoint record")

(* What a chain persists, decoded: the newest container's identity
   ([meta]), signed head and peer heads, the log its observations replay
   into, and the VRP set the chain restores to.  A full save writes one of
   these as a base, [read_chain] gives one back, and compaction writes back
   what it read. *)
type persisted = {
  p_name : string;
  p_asn : int;
  p_epoch : int;
  p_rtr_serial : int;
  p_sth : Tlog.signed_head;
  p_log : Tlog.t;
  p_peers : (string * Tlog.head) list; (* in [peer_heads] order *)
  p_vrps : Vrp.t list;
}

(* Where incremental persistence left off against one store, kept only
   while the chain's last file read back intact: how many log observations
   the chain already holds, the head they were sealed under — the
   checkpoint the next segment's consistency proof starts from — and the
   VRP set the chain restores to, which the next segment's VRP diff is
   taken against. *)
type mark = {
  pm_obs : int;
  pm_head : Tlog.head;
  pm_vrps : Vrp.t list;
}

let mark p = { pm_obs = Tlog.size p.p_log; pm_head = p.p_sth.Tlog.sh_head; pm_vrps = p.p_vrps }

(* The bounded records every container carries: identity, the current
   signed head and the gossip-verified peer heads.  The decoders accept
   only canonical encodings, so a record read and written again keeps its
   bytes. *)
let meta_record p =
  record "meta"
    (Der.encode
       (Der.Sequence
          [ Der.Utf8 p.p_name; Der.int_ p.p_asn; Der.int_ p.p_epoch; Der.int_ p.p_rtr_serial ]))

let sth_record (sh : Tlog.signed_head) =
  record "sth"
    (Der.encode
       (Der.Sequence
          [ Der.Octet_string (Tlog.encode_head sh.Tlog.sh_head); Der.Octet_string sh.Tlog.sh_sig ]))

let peer_records p =
  List.rev_map
    (fun (peer, h) ->
      record "peer"
        (Der.encode (Der.Sequence [ Der.Utf8 peer; Der.Octet_string (Tlog.encode_head h) ])))
    p.p_peers

let obs_record o = record "obs" (Tlog.encode_observation o)

(* The one writer of a base, for a full save and for compaction: every
   observation in order, the full VRP set and no checkpoint (a base has no
   predecessor). *)
let base p =
  (meta_record p :: sth_record p.p_sth :: List.map obs_record (Tlog.observations p.p_log))
  @ peer_records p @ [ vrps_record p.p_vrps ]

(* O(delta): only the observations appended since [m], sealed under the
   checkpoint that ties them to the previous head, and the VRP set as a
   diff against the one the chain already restores to. *)
let segment p ~since:m =
  let fresh = List.map (fun (_, o) -> obs_record o) (Tlog.since p.p_log m.pm_obs) in
  let proof =
    if m.pm_obs = 0 then []
    else Tlog.consistency_proof p.p_log ~old_size:m.pm_obs ~size:(Tlog.size p.p_log)
  in
  let ckpt = record "ckpt" (encode_checkpoint ~prev:m.pm_head ~proof) in
  let diff =
    if m.pm_vrps == p.p_vrps then Vrp.empty_diff
    else Vrp.diff_of ~before:m.pm_vrps ~after:p.p_vrps
  in
  let vrps = if Vrp.diff_is_empty diff then [] else [ vrps_diff_record diff ] in
  (meta_record p :: sth_record p.p_sth :: ckpt :: fresh) @ peer_records p @ vrps

(* The chain, base first, read with every check that needs no vantage.
   Observations accumulate across containers (each segment holds only its
   delta); meta, signed head and peer heads are rewritten whole on every
   save, so the newest container wins; the VRP set is the base's with each
   segment's diff applied ({!chain_vrps}).  Each segment must carry a
   checkpoint naming the previous container's head byte-for-byte and a
   consistency proof from it to the segment's own head, and the
   observations must replay into exactly the newest head's log id, size
   and Merkle root: the chain is one append-only history or it is refused.
   Raises [Restore_error] (or a decoder's exception). *)
let read containers =
  let bad = restore_error in
  let meta = ref None in
  let sth = ref None in
  let obs = ref [] in
  let peers = ref [] in
  let prev_head = ref None in
  List.iter
    (fun (snap : Codec.snapshot) ->
      let g = snap.Codec.s_generation in
      let c_meta = ref None in
      let c_sth = ref None in
      let c_ckpt = ref None in
      let c_peers = ref [] in
      (* one meta, signed head and checkpoint per container: a second one
         would make "the newest" ambiguous *)
      let once kind cell v =
        if Option.is_some !cell then bad "container %d carries two %s records" g kind;
        cell := Some v
      in
      List.iter
        (fun (r : Codec.record) ->
          let payload = r.Codec.r_payload in
          match r.Codec.r_kind with
          | "meta" -> (
            match Der.decode payload with
            | Ok
                (Der.Sequence
                  [ Der.Utf8 n; (Der.Integer _ as a); (Der.Integer _ as e);
                    (Der.Integer _ as s) ]) ->
              (* the meta record is not under the head's signature, and an
                 RTR serial is a 32-bit field (RFC 6810 section 5.3): a
                 wider one is refused, never carried mod 2^32 *)
              once "meta" c_meta (n, Der.to_int_exn a, Der.to_int_exn e, Resources.uint32_of_der s)
            | _ -> bad "malformed meta record")
          | "sth" -> (
            match Der.decode payload with
            | Ok (Der.Sequence [ Der.Octet_string head; Der.Octet_string signature ]) -> (
              match Tlog.decode_head head with
              | Some h -> once "sth" c_sth { Tlog.sh_head = h; sh_sig = signature }
              | None -> bad "malformed persisted tree head")
            | _ -> bad "malformed sth record")
          | "ckpt" -> once "ckpt" c_ckpt (decode_checkpoint payload)
          | "obs" -> (
            match Tlog.decode_observation payload with
            | Some o -> obs := o :: !obs
            | None -> bad "malformed observation record")
          | "peer" -> (
            match Der.decode payload with
            | Ok (Der.Sequence [ Der.Utf8 peer; Der.Octet_string head ]) -> (
              match Tlog.decode_head head with
              | Some h -> c_peers := (peer, h) :: !c_peers
              | None -> bad "malformed peer head for %s" peer)
            | _ -> bad "malformed peer record")
          | "vrps" | "vrps-diff" -> () (* read by [chain_vrps] below *)
          | other -> bad "unknown record kind %S" other)
        snap.Codec.s_records;
      let c_sth =
        match !c_sth with
        | Some s -> s
        | None -> bad "container %d missing its signed tree head" g
      in
      (match (!prev_head, !c_ckpt) with
      | None, None -> () (* the base container: no predecessor to prove *)
      | None, Some _ -> bad "base container carries a checkpoint"
      | Some _, None -> bad "segment %d missing its checkpoint" g
      | Some prev, Some (ckpt_head, proof) ->
        if not (String.equal (Tlog.encode_head ckpt_head) (Tlog.encode_head prev)) then
          bad "segment %d checkpoint does not name the previous head" g;
        if
          not
            (Tlog.verify_head_consistency ~old_head:ckpt_head
               ~new_head:c_sth.Tlog.sh_head proof)
        then bad "segment %d consistency proof fails" g);
      prev_head := Some c_sth.Tlog.sh_head;
      sth := Some c_sth;
      (match !c_meta with
      | Some m -> meta := Some m
      | None -> bad "container %d missing its meta record" g);
      peers := !c_peers)
    containers;
  let vrps = chain_vrps (List.map (fun (s : Codec.snapshot) -> s.Codec.s_records) containers) in
  let name, asn, epoch, rtr_serial =
    match !meta with Some m -> m | None -> bad "missing meta record"
  in
  let sth = match !sth with Some s -> s | None -> bad "missing signed tree head" in
  let log = Tlog.create ~log_id:(log_id ~name ~epoch) in
  List.iter
    (fun o ->
      match Tlog.append log o with
      | `Appended _ -> ()
      | `Unchanged -> bad "replay produced a duplicate observation")
    (List.rev !obs);
  let h = sth.Tlog.sh_head in
  if not (String.equal h.Tlog.h_log_id (Tlog.log_id log)) then
    bad "persisted head names log %S, expected %S" h.Tlog.h_log_id (Tlog.log_id log);
  if h.Tlog.h_size <> Tlog.size log then
    bad "persisted head size %d, rehydrated log has %d" h.Tlog.h_size (Tlog.size log);
  let rebuilt = Tlog.head log ~at:h.Tlog.h_at in
  if not (String.equal rebuilt.Tlog.h_root h.Tlog.h_root) then
    bad "Merkle root mismatch between persisted head and rehydrated log";
  { p_name = name; p_asn = asn; p_epoch = epoch; p_rtr_serial = rtr_serial; p_sth = sth;
    p_log = log; p_peers = !peers; p_vrps = vrps }

(* The reader's failures as [Error]: a chain that does not hold together is
   an answer, never an exception. *)
let read_chain containers =
  match read containers with
  | p -> Ok p
  | exception (Restore_error why | Der.Decode_error why | Invalid_argument why) -> Error why
