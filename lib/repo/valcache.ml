(* The shared validation plane: a content-addressed verification cache that
   many relying-party vantages consult during one simulation tick.

   Two layers, both keyed purely by content:

   - RSA verdicts: (issuer key id, SHA-256 of signature + message) -> bool.
     Sound because RSA verification is a pure function of its inputs; a
     verdict computed for one vantage is the verdict for every vantage.
     The key id is a field of the key, made when the key was.

   - Publication-point outcomes: (issuing certificate digest, listing
     fingerprint) -> the full validation outcome (VRPs and their digest,
     issues, child CAs with the digests of their bytes, manifest identity),
     together with every validity-window boundary the validation consulted.
     The certificate digest is of the bytes it was served as, taken once
     when the parent point was validated.  An outcome is replayable at a
     different [now] exactly when [now] sits on the same side of every
     recorded boundary — the same rule the per-vantage memo uses.  A
     boundary is the instant one of validation's time predicates changes
     its answer ({!Point.validate}), so the side is two-valued.

   Split-view safety is structural, not policed: a misbehaving authority
   that serves a forked manifest to one vantage necessarily changes that
   vantage's listing fingerprint, so the victim's lookups key to a
   different cache line than the honest vantages'.  The cache can never
   merge the two views; per-vantage transport accounting, transparency
   observations and gossip evidence are computed outside it and keep their
   per-vantage divergence.  Cache hits skip crypto — never transport.

   The outcome deliberately carries no URI: a point's validation outcome is
   a function of (issuing certificate bytes, listing bytes, window sides)
   only.  Issue records store just the optional filename and reason; each
   relying party re-attaches its own URI when replaying. *)

open Rpki_core

type outcome = {
  o_parent_fp : string;          (* SHA-256 of the bytes the issuing cert
                                    was decoded from *)
  o_snap_fp : string;            (* fingerprint of the listing validated *)
  o_at : Rtime.t;                (* when it was validated *)
  o_boundaries : Rtime.t list;   (* every validity boundary consulted *)
  o_vrps : Vrp.t list;           (* the point's direct VRP contribution *)
  o_vrp_hash : string;           (* canonical digest of [o_vrps] *)
  o_issues : (string option * Validation.issue_kind * string) list;
                                 (* filename, kind, reason — no URI *)
  o_failed_resources : Resources.t;
                                 (* resources claimed by child CA certs that
                                    failed validation here — unsafe-VRP input *)
  o_children : (Cert.t * string) list;
                                 (* validated child CA certs, in file order,
                                    each with the SHA-256 of its bytes *)
  o_mft_number : int;            (* manifest number as served; 0 if none *)
  o_mft_hash : string;           (* SHA-256 of the manifest bytes; "" if none *)
}

(* Which side of boundary [b] the instant [now] is on: before it, or at
   or after it.  Same rule as the relying party's private memo and the
   per-file records of {!Point}. *)
let side now b = Rtime.compare now b < 0

let outcome_current o ~now =
  Rtime.compare o.o_at now = 0
  || List.for_all (fun b -> side now b = side o.o_at b) o.o_boundaries

type stats = {
  sig_checked : int;   (* RSA verifications executed through the cache *)
  sig_saved : int;     (* RSA verifications answered from a memoized verdict *)
  point_hits : int;    (* publication-point outcomes replayed *)
  point_misses : int;  (* publication-point outcomes validated from scratch *)
}

let empty_stats = { sig_checked = 0; sig_saved = 0; point_hits = 0; point_misses = 0 }

let add_stats a b =
  { sig_checked = a.sig_checked + b.sig_checked;
    sig_saved = a.sig_saved + b.sig_saved;
    point_hits = a.point_hits + b.point_hits;
    point_misses = a.point_misses + b.point_misses }

let sub_stats a b =
  { sig_checked = a.sig_checked - b.sig_checked;
    sig_saved = a.sig_saved - b.sig_saved;
    point_hits = a.point_hits - b.point_hits;
    point_misses = a.point_misses - b.point_misses }

(* A memoized verdict, with the expiry epoch-based eviction judges it by:
   the latest validity boundary among the publication-point outcomes whose
   validation consulted it.  [None] until the first such outcome is stored
   (a verdict is never evicted before its content has been tied to a
   window). *)
type verdict = { vd_value : bool; mutable vd_deadline : Rtime.t option }

type residency = {
  rs_verdicts : int;          (* memoized verdicts currently resident *)
  rs_outcomes : int;          (* publication-point outcomes currently resident *)
  rs_verdicts_evicted : int;  (* cumulative verdicts dropped by [evict] *)
  rs_outcomes_evicted : int;  (* cumulative outcomes dropped by [evict] *)
}

type t = {
  verdicts : (string, verdict) Hashtbl.t;
  points : (string, outcome) Hashtbl.t;
  mutable digest : string; [@warning "-69"]
      (* the universe digest the current tick's [begin_tick] was given,
         if any ([Loop.step] gives none).  Nothing reads it; it goes with
         [begin_tick]'s [?digest] in the benchmark re-baseline (ROADMAP
         item 1), since benchmark/ still passes it *)
  mutable totals : stats;        (* cumulative since creation *)
  mutable tick_base : stats;     (* totals at the last [begin_tick] *)
  pending : (string, unit) Hashtbl.t;
                                 (* verdict keys consulted since the last
                                    [store_point] — they inherit that
                                    outcome's expiry deadline *)
  mutable verdicts_evicted : int;
  mutable outcomes_evicted : int;
}

let create () =
  { verdicts = Hashtbl.create 256; points = Hashtbl.create 64;
    digest = ""; totals = empty_stats; tick_base = empty_stats;
    pending = Hashtbl.create 32; verdicts_evicted = 0; outcomes_evicted = 0 }

(* The operator's wipe: drop everything, statistics included.  Distinct
   from {!evict}, which drops only window-expired entries and keeps the
   counters — so a wipe can never masquerade as eviction in a bench. *)
let clear t =
  Hashtbl.reset t.verdicts;
  Hashtbl.reset t.points;
  t.digest <- "";
  t.totals <- empty_stats;
  t.tick_base <- empty_stats;
  Hashtbl.reset t.pending;
  t.verdicts_evicted <- 0;
  t.outcomes_evicted <- 0

let stats t = t.totals
let tick_stats t = sub_stats t.totals t.tick_base

let residency t =
  { rs_verdicts = Hashtbl.length t.verdicts;
    rs_outcomes = Hashtbl.length t.points;
    rs_verdicts_evicted = t.verdicts_evicted;
    rs_outcomes_evicted = t.outcomes_evicted }

(* --- the RSA verdict layer --- *)

(* Content address of one verification: issuer key id plus a digest of the
   length-prefixed signature and message (length prefix: no concatenation
   ambiguity).  Two calls with the same key, signature and message are the
   same verification, whoever asks. *)
let verdict_key ~key ~signature msg =
  Rpki_crypto.Rsa.key_id key
  ^ Rpki_crypto.Sha256.digest
      (Printf.sprintf "%d:%s%s" (String.length signature) signature msg)

let verify t ~key ~signature msg =
  let k = verdict_key ~key ~signature msg in
  Hashtbl.replace t.pending k ();
  match Hashtbl.find_opt t.verdicts k with
  | Some v ->
    t.totals <- add_stats t.totals { empty_stats with sig_saved = 1 };
    v.vd_value
  | None ->
    t.totals <- add_stats t.totals { empty_stats with sig_checked = 1 };
    let v = Rpki_crypto.Rsa.verify ~key ~signature msg in
    Hashtbl.replace t.verdicts k { vd_value = v; vd_deadline = None };
    v

(* --- the publication-point outcome layer --- *)

(* Both components are fixed-width SHA-256 digests, so plain concatenation
   is unambiguous. *)
let point_key ~parent_fp ~snap_fp = parent_fp ^ snap_fp

let find_point t ~parent_fp ~snap_fp ~now =
  match Hashtbl.find_opt t.points (point_key ~parent_fp ~snap_fp) with
  | Some o when outcome_current o ~now ->
    t.totals <- add_stats t.totals { empty_stats with point_hits = 1 };
    Some o
  | _ ->
    t.totals <- add_stats t.totals { empty_stats with point_misses = 1 };
    None

let rtime_max a b = if Rtime.compare a b >= 0 then a else b

let store_point t o =
  Hashtbl.replace t.points (point_key ~parent_fp:o.o_parent_fp ~snap_fp:o.o_snap_fp) o;
  (* the verdicts consulted on the way to this outcome expire with its last
     validity boundary: once every window the validation compared against
     has passed, neither the outcome nor its signatures can serve a future
     lookup profitably *)
  (match o.o_boundaries with
  | [] -> ()
  | b :: bs ->
    let deadline = List.fold_left rtime_max b bs in
    Hashtbl.iter
      (fun k () ->
        match Hashtbl.find_opt t.verdicts k with
        | None -> ()
        | Some v ->
          v.vd_deadline <-
            Some
              (match v.vd_deadline with
              | None -> deadline
              | Some d -> rtime_max d deadline))
      t.pending);
  Hashtbl.reset t.pending

(* --- epoch-based eviction ------------------------------------------------

   The cache is a pure memo, so dropping entries can never change results —
   only re-run crypto.  [evict ~now] drops exactly the entries [now] is
   past every consulted validity boundary of: an outcome all of whose
   windows have closed, and a verdict whose inherited deadline (the latest
   boundary of the outcomes that consulted it) has passed.  Entries for
   live content are untouched, so residency tracks the distinct live
   content in the universe instead of growing with history. *)

let passed b ~now = not (side now b)

let all_passed boundaries ~now = boundaries <> [] && List.for_all (passed ~now) boundaries

let evict t ~now =
  let dead_points =
    Hashtbl.fold
      (fun k o acc -> if all_passed o.o_boundaries ~now then k :: acc else acc)
      t.points []
  in
  List.iter (Hashtbl.remove t.points) dead_points;
  t.outcomes_evicted <- t.outcomes_evicted + List.length dead_points;
  let dead_verdicts =
    Hashtbl.fold
      (fun k v acc ->
        match v.vd_deadline with
        | Some d when passed d ~now -> k :: acc
        | _ -> acc)
      t.verdicts []
  in
  List.iter (Hashtbl.remove t.verdicts) dead_verdicts;
  t.verdicts_evicted <- t.verdicts_evicted + List.length dead_verdicts

let end_tick t ~now = evict t ~now

(* --- the batch scheduler's tick boundary --- *)

(* One digest of the whole publication universe's honest contents.  Only
   the benchmark's tick replica computes it, for [begin_tick]'s [?digest];
   both go in the benchmark re-baseline (ROADMAP item 1). *)
let universe_digest universe =
  Rpki_crypto.Sha256.digest
    (String.concat "\n"
       (List.map
          (fun pp -> Pub_point.uri pp ^ " " ^ Pub_point.fingerprint pp)
          (Universe.points universe)))

let begin_tick ?(digest = "") t =
  t.digest <- digest;
  t.tick_base <- t.totals
