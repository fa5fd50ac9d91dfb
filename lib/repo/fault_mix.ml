(* The fault-mix engine: corpus-weighted background noise for a running
   simulation.

   Each tick, every target authority independently draws against the fault
   rate; a firing draw samples a {!Fault_corpus.category} and injects the
   corresponding misbehavior — authority-side (expired CRL, withheld
   manifest, seqnum gap, expired / forward-dated ROA, RFC 3779 overclaim,
   manifest-number regression) or transport-side (DNS failure, refused /
   timed-out connects, cross-origin redirect) on every transport given.
   Injected faults age out: after [repair_after] ticks the engine runs the
   matching repair (a fresh republish, a renewed ROA, a cleared fault), so
   the mix is a churning background, not monotone decay.

   Determinism: all randomness flows through one seeded [Rng.t], consumed
   in a fixed order (targets in list order; one gate draw each, plus the
   draws of the category actually fired).  At [rate = 0.] the generator is
   never consulted and no target is touched, so a rate-zero run is
   byte-identical to one with no engine at all — the property the QCheck
   suite pins down. *)

open Rpki_core
module Rng = Rpki_util.Rng

type active = {
  af_authority : string;
  af_at : Rtime.t;
  af_repair : now:Rtime.t -> unit;
}

type injection = {
  inj_category : Fault_corpus.category;
  inj_description : string;
}

type t = {
  rng : Rng.t;
  rate : float;
  repair_after : int;
  mutable active : active list;
  mutable injected : int;
  mutable repaired : int;
  counts : (Fault_corpus.category, int) Hashtbl.t;
}

let create ~seed ~rate ?(repair_after = 4) () =
  if rate < 0. || rate > 1. then invalid_arg "Fault_mix.create: rate outside [0,1]";
  { rng = Rng.create seed; rate; repair_after; active = []; injected = 0; repaired = 0;
    counts = Hashtbl.create 16 }

let active t = t.active
let injected t = t.injected
let repaired t = t.repaired

let counts t =
  List.filter_map
    (fun (c, _) ->
      match Hashtbl.find_opt t.counts c with Some n -> Some (c, n) | None -> None)
    Fault_corpus.weights

(* An out-of-tree prefix for RFC 3779 overclaims: TEST-NET-3 is outside
   both the paper fixture's 63/8 and the world generator's 10/8. *)
let overclaim_prefix = Rpki_ip.V4.p "203.0.113.0/24"
let overclaim_asid = 64511

(* A seqnum-gap injection must leap further than honest churn does: every
   maintenance pass advances a point's manifest number once per republish
   (one per ROA renewal plus one per refresh), so the relying party only
   flags jumps beyond {!Relying_party.seqnum_gap_threshold}.  The corpus
   gaps (3, 15, ...) are scaled up accordingly. *)
let gap_size rng = 100 + Rng.int rng 100

let transport_uri authority = Pub_point.uri (Authority.pub authority)

let set_transport_fault transports ~uri fault =
  List.iter (fun tr -> Transport.set_fault tr ~uri fault) transports

let clear_transport_fault transports ~uri =
  List.iter (fun tr -> Transport.clear_fault tr ~uri) transports

(* Turn one sampled category into a concrete fault on [authority] (or its
   transport path).  Returns [None] when the category needs a ROA and the
   authority has none to break. *)
let apply t ~authority ~transports ~now category =
  let name = Authority.name authority in
  let uri = transport_uri authority in
  let roa_target () =
    match Authority.roas authority with
    | [] -> None
    | roas -> Some (fst (Rng.pick t.rng roas))
  in
  match (category : Fault_corpus.category) with
  | Expired_crl ->
    Authority.expire_crl authority ~now;
    Some
      ( Printf.sprintf "%s: CRL published already expired" name,
        fun ~now -> Authority.refresh authority ~now )
  | Missing_manifest ->
    Authority.withhold_manifest authority;
    Some
      ( Printf.sprintf "%s: manifest withheld" name,
        fun ~now -> Authority.refresh authority ~now )
  | Seqnum_gap ->
    let gap = gap_size t.rng in
    Authority.skip_manifest_numbers authority ~gap ~now;
    Some (Printf.sprintf "%s: manifest number jumped by %d" name gap, fun ~now:_ -> ())
  | Expired_cert -> (
    match roa_target () with
    | None -> None
    | Some filename ->
      Authority.expire_roa authority ~filename ~now;
      Some
        ( Printf.sprintf "%s: %s re-signed already expired" name filename,
          fun ~now -> ignore (Authority.renew_roa authority ~filename ~now) ))
  | Not_yet_valid_cert -> (
    match roa_target () with
    | None -> None
    | Some filename ->
      Authority.postdate_roa authority ~filename ~delay:(8 * (t.repair_after + 1)) ~now;
      Some
        ( Printf.sprintf "%s: %s forward-dated" name filename,
          fun ~now -> ignore (Authority.renew_roa authority ~filename ~now) ))
  | Rfc3779_violation ->
    let filename =
      Authority.overclaim_roa authority ~asid:overclaim_asid ~prefix:overclaim_prefix ~now
    in
    Some
      ( Printf.sprintf "%s: %s claims resources outside the certificate" name filename,
        fun ~now -> Authority.revoke_roa authority ~filename ~now )
  | Manifest_regression ->
    let by = 1 + Rng.int t.rng 3 in
    Authority.regress_manifest_number authority ~by ~now;
    Some (Printf.sprintf "%s: manifest number regressed by %d" name by, fun ~now:_ -> ())
  | Dns_failure ->
    set_transport_fault transports ~uri Transport.Dns_failure;
    Some
      ( Printf.sprintf "%s: no address associated with name" name,
        fun ~now:_ -> clear_transport_fault transports ~uri )
  | Connect_refused ->
    set_transport_fault transports ~uri Transport.Refused;
    Some
      ( Printf.sprintf "%s: connect refused" name,
        fun ~now:_ -> clear_transport_fault transports ~uri )
  | Connect_timeout ->
    set_transport_fault transports ~uri Transport.Timing_out;
    Some
      ( Printf.sprintf "%s: connect timeout" name,
        fun ~now:_ -> clear_transport_fault transports ~uri )
  | Cross_origin_redirect ->
    set_transport_fault transports ~uri (Transport.Redirect ("mirror." ^ uri));
    Some
      ( Printf.sprintf "%s: cross-origin redirect" name,
        fun ~now:_ -> clear_transport_fault transports ~uri )

let tick t ~targets ~transports ~now =
  (* age out and repair first, so a slot freed this tick can fault again *)
  let due, live =
    List.partition (fun a -> now - a.af_at >= t.repair_after) t.active
  in
  List.iter
    (fun a ->
      a.af_repair ~now;
      t.repaired <- t.repaired + 1)
    due;
  t.active <- live;
  if t.rate = 0. then []
  else
    List.filter_map
      (fun authority ->
        if Rng.float t.rng >= t.rate then None
        else
          let category = Fault_corpus.sample t.rng in
          match apply t ~authority ~transports ~now category with
          | None -> None
          | Some (description, repair) ->
            let name = Authority.name authority in
            t.injected <- t.injected + 1;
            Hashtbl.replace t.counts category
              (1 + Option.value (Hashtbl.find_opt t.counts category) ~default:0);
            t.active <-
              { af_authority = name; af_at = now; af_repair = repair }
              :: t.active;
            Some { inj_category = category; inj_description = description })
      targets
