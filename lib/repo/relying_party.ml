(* The relying party: fetches the distributed RPKI and computes the set of
   validated ROA payloads (RFC 6480 section 6, RFC 6483).

   Fetching goes through an explicit {!Transport}: every request has a time
   cost (in the closed-loop simulation, derived from the RP's own BGP data
   plane — the paper's Section 6 circularity expressed as latency) and a
   publication point may be slow, stalling or unreachable.  A {!fetch_policy}
   governs how the RP spends time: a per-point timeout, a total sync budget,
   bounded retries with deterministic backoff, and a fallback ladder
   live -> mirror -> RRDP -> stale cache.  Like rsync, the RP keeps the last
   successfully fetched copy of each publication point; when it has to fall
   back to it, the age of that copy is recorded on the sync result.

   Sync is incremental.  Each publication point's listing carries a SHA-256
   fingerprint; per (point, issuing certificate) the RP memoizes the full
   validation outcome — VRPs, issues, child CA certificates — together with
   every validity-window boundary that outcome depended on, and the
   per-file results of its own last validation of the point.  A warm tick
   re-fetches (cheap: the fingerprint is cached on the point) but only
   re-validates points whose fingerprint, parent certificate, or
   time-window side changed, and inside such a point it checks only the
   manifest, the CRL and the objects whose bytes, window side or
   revocation answer changed; every other object's contribution is
   replayed.  The resulting VRP set is diffed against the previous tick's
   and the diff patches the origin-validation index in place; the same
   diff feeds the RTR cache as a serial delta.

   Equivalence invariant: a warm sync produces exactly the VRP set, index
   and classification results a cold from-scratch sync would.  A point's
   outcome is only ever reused when (a) the listing bytes are
   fingerprint-identical, (b) the issuing certificate is byte-identical,
   and (c) [now] sits on the same side of every validity boundary the
   original validation consulted — validation's only dependence on time is
   those window comparisons.  An object's contribution is only ever reused
   under (b), for the same name and bytes, with [now] on the same side of
   its own window's boundaries and the same answer from the current CRL
   for its serial. *)

open Rpki_core
module Tlog = Rpki_transparency.Log

type tal = {
  ta_key : Rpki_crypto.Rsa.public;
  ta_uri : string;
  ta_cert_filename : string;
}

let tal_of_authority a =
  let ta_key, ta_uri, ta_cert_filename = Authority.tal a in
  { ta_key; ta_uri; ta_cert_filename }

type fetch_status =
  | Fetched                 (* live copy obtained *)
  | Fetched_mirror          (* primary failed; a mirror served the copy *)
  | Fetched_rrdp            (* primary failed; the RRDP delta service served it *)
  | Stale_cache             (* all channels failed; last-known snapshot used *)
  | Unavailable             (* all channels failed and nothing cached *)

(* Routinator-style unsafe-VRP handling: a VRP whose prefix overlaps the
   resources of a CA that failed to validate this sync may be shielding —
   or shadowing — announcements the failed CA would have spoken for.
   [Unsafe_accept] skips the analysis entirely (the pre-existing behavior,
   bit-for-bit); [Unsafe_warn] computes and reports the unsafe set;
   [Unsafe_reject] additionally drops unsafe VRPs from the effective set —
   which silently withdraws the covering ROA's protection (the downgrade
   the faultmix bench measures). *)
type unsafe_policy = Unsafe_accept | Unsafe_warn | Unsafe_reject

let unsafe_policy_to_string = function
  | Unsafe_accept -> "accept"
  | Unsafe_warn -> "warn"
  | Unsafe_reject -> "reject"

(* How the RP spends transport time during one sync. *)
type fetch_policy = {
  point_timeout : int;      (* cap on any single request *)
  sync_budget : int;        (* cap on the whole sync's transport time *)
  retries : int;            (* extra live attempts after a stalled request *)
  backoff : int;            (* base backoff between retries; 0 = none *)
  use_mirrors : bool;
  use_rrdp : bool;
  use_stale : bool;         (* combined with the RP's own use_stale flag *)
  unsafe : unsafe_policy;   (* what to do with VRPs overlapping failed CAs *)
}

let default_policy =
  { point_timeout = 64; sync_budget = 4096; retries = 2; backoff = 2;
    use_mirrors = true; use_rrdp = true; use_stale = true; unsafe = Unsafe_accept }

(* The Stalloris victim: patient timeouts, eager retries, no alternate
   channels — a stalling repository eats the whole budget. *)
let naive_policy =
  { point_timeout = 512; sync_budget = 2048; retries = 8; backoff = 0;
    use_mirrors = false; use_rrdp = false; use_stale = true; unsafe = Unsafe_accept }

(* Short timeouts, one retry, every fallback channel: the damage-confining
   counter-policy. *)
let resilient_policy =
  { point_timeout = 16; sync_budget = 1024; retries = 1; backoff = 2;
    use_mirrors = true; use_rrdp = true; use_stale = true; unsafe = Unsafe_accept }

type issue = {
  uri : string;
  filename : string option;
  kind : Validation.issue_kind;
  reason : string;          (* human detail; [kind] is what gets counted *)
}

(* Per-category issue counters: descending by count, then by label, so the
   order is deterministic and the biggest problem reads first. *)
let issue_counts issues =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Hashtbl.replace tbl i.kind (1 + Option.value (Hashtbl.find_opt tbl i.kind) ~default:0))
    issues;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (k1, n1) (k2, n2) ->
         match compare n2 n1 with
         | 0 ->
           String.compare
             (Validation.issue_kind_to_string k1)
             (Validation.issue_kind_to_string k2)
         | c -> c)

(* Honest maintenance advances a point's manifest number once per republish
   — one per ROA renewal plus one per refresh — so between two syncs the
   number routinely jumps by the operation count.  Only leaps beyond this
   threshold are flagged as corpus-style seqnum gaps. *)
let seqnum_gap_threshold = 64

(* The transport-level story of one publication point's fetch. *)
type transfer = {
  t_uri : string;
  t_status : fetch_status;
  t_channel : string;       (* "live" | "mirror:<uri>" | "rrdp:<uri>" | "cache" | "none" *)
  t_attempts : int;         (* requests issued across all channels *)
  t_elapsed : int;          (* transport time spent on this point *)
  t_data_age : int;         (* age of the data used; 0 unless a stale copy *)
}

(* A publication point contradicting this vantage's own recorded history —
   the local (no-gossip-needed) signal of a rewritten past.  Only a log that
   survived the restart can raise these; a fresh log has no baseline. *)
type regression =
  | Serial_regression of {
      rg_uri : string;
      rg_prev : Rpki_transparency.Log.observation;  (* what we last recorded *)
      rg_now : Rpki_transparency.Log.observation;   (* the older serial served now *)
    }
  | Content_equivocation of {
      rg_uri : string;
      rg_index : int;  (* index of the first observation under this key *)
      rg_prev : Rpki_transparency.Log.observation;
      rg_now : Rpki_transparency.Log.observation;
    }

let regression_to_string = function
  | Serial_regression r ->
    Printf.sprintf "serial regression at %s: saw #%d after recording #%d" r.rg_uri
      r.rg_now.Rpki_transparency.Log.ob_serial r.rg_prev.Rpki_transparency.Log.ob_serial
  | Content_equivocation r ->
    Printf.sprintf "equivocation at %s: two states under manifest #%d (first at index %d)"
      r.rg_uri r.rg_now.Rpki_transparency.Log.ob_serial r.rg_index

type sync_result = {
  vrps : Vrp.t list;
  unsafe_vrps : Vrp.t list;
  (* VRPs overlapping resources of a CA that failed this sync.  Empty under
     [Unsafe_accept] (the analysis is skipped); under [Unsafe_reject] these
     are additionally absent from [vrps]. *)
  failed_resources : Resources.t;
  (* the union of resources claimed by CAs that failed to validate *)
  issues : issue list;
  fetches : (string * fetch_status) list;
  transfers : transfer list;
  sync_elapsed : int;
  budget_exhausted : bool;
  cas_validated : string list;
  index : Origin_validation.index;
  diff : Vrp.diff;
  points_reused : int;
  points_revalidated : int;
  observations_appended : int;
  regressions : regression list;
  tree_head : Rpki_transparency.Log.head;
}

type cached_point = {
  cp_files : (string * string) list;
  cp_fp : string;
  cp_at : Rtime.t; (* when this copy was last confirmed fresh *)
}

(* One state a publication point served this vantage, as this vantage
   validated it — the rollback layer's unit of "proven-honest state". *)
type point_state = {
  ps_vrp_hash : string;  (* vrp_set_hash of ps_vrps: the content address
                            gossip evidence carries *)
  ps_vrps : Vrp.t list;
}

(* A point's memo entry: its outcome, and the per-file results of this
   vantage's own last validation of it, which the next one replays object
   by object.  The results never enter the shared plane.  An outcome the
   shared plane served keeps the results of the last validation before it:
   each record holds at the instant it was made, so an older one is still
   sound, only less often reusable. *)
type memo_entry = { outcome : Valcache.outcome; files : Point.results option }

type t = {
  name : string;
  asn : int; (* the AS where this relying party sits *)
  tals : tal list;
  use_stale : bool;
  grace : int option;
  (* Suspenders-style fail-safe (Kent & Mandelberg, the paper's ref [25]):
     when set, a VRP that disappears keeps being used for this many ticks
     after it was last seen, softening Side Effects 6 and 7 — at the price
     of delaying legitimate revocations by the same window. *)
  cache : (string, cached_point) Hashtbl.t; (* uri -> last good copy *)
  rrdp_clients : (string, Rrdp.client) Hashtbl.t; (* primary uri -> RRDP state *)
  memo : (string, (string * memo_entry) list) Hashtbl.t;
  (* uri -> parent key id -> outcome and per-file results.  The outcome is
     URI-free, a pure function of (issuing certificate bytes, listing
     bytes, window sides), so one computed by one vantage can be replayed
     verbatim from the shared validation plane by any other vantage that
     observed the same content; each vantage re-attaches its own URI to
     the issues. *)
  mutable walked : Vrp.t list list;
  (* the [o_vrps] of every point the last sync walked, newest first ... *)
  mutable union : Vrp.t list;
  (* ... and their sorted union: reused while a sync walks the same lists *)
  vrp_memory : (Vrp.t, Rtime.t) Hashtbl.t;
  (* vrp -> last time seen, for the VRPs that left [seen]; under grace only *)
  mutable seen : Vrp.t list;
  mutable seen_at : Rtime.t;
  (* the VRPs the last sync under grace saw, all last seen at [seen_at]:
     memory is stamped when a VRP leaves this set, not on every sync *)
  mutable last_result : sync_result option;
  mutable effective_vrps : Vrp.t list; (* baseline the next diff is against *)
  mutable index : Origin_validation.index;
  mutable log_epoch : int; (* incarnation counter bound into the log id: a
                              fresh restart (no usable snapshot) must start a
                              *new* log rather than impersonate a truncated
                              continuation of the old one *)
  mutable tlog : Rpki_transparency.Log.t; (* this vantage's transparency log:
                                     one observation per distinct publication-
                                     point state ever fetched.  Append-only;
                                     survives flush_cache by design (evidence
                                     must not be erasable by a cache wipe).
                                     Mutable only so {!restore} can swap in the
                                     rehydrated log. *)
  mutable peer_heads : (string * Rpki_transparency.Log.head) list;
  (* last gossip-verified head per peer — the persisted anti-rollback baseline
     for *other* vantages' logs *)
  mutable log_baseline : int; (* leaves of [tlog] that predate this process
                                 incarnation (restored from a snapshot).  Only
                                 contradictions of *that* prefix are flagged as
                                 regressions: within one continuous run, a
                                 changed point is ordinary churn or corruption
                                 (Side Effect 7), handled by validation and
                                 gossip — never a rollback alarm. *)
  mutable tkey : Rpki_crypto.Rsa.keypair option; (* lazy tree-head signing key *)
  mutable sth_cache : Rpki_transparency.Log.signed_head option;
  (* the last head signed: reused while the tree (log id, size, root) is
     unchanged — a static log keeps serving one STH to every pull instead
     of paying an RSA signature per serve *)
  mutable persist_marks : (Rpki_persist.Store.t * Rp_store.mark) list;
  (* one mark per store (the same disk and name), newest first, so one
     vantage can save to several stores, even under one name on two disks *)
  point_history : (string, point_state list) Hashtbl.t;
  (* bounded per-uri history (newest first) of the VRP contributions this
     vantage itself validated.  {!rollback_last_good} searches it when
     gossip proves a fork late: the entry matching the proven-honest side's
     VRP-set hash is the state the RTR hold should freeze at.  Process
     state only — after a restart the history is empty and rollback
     degrades to pinning nothing, which is fail-closed. *)
}

let create ~name ~asn ~tals ?(use_stale = true) ?grace ?(log_epoch = 0) () =
  { name; asn; tals; use_stale; grace; cache = Hashtbl.create 16;
    rrdp_clients = Hashtbl.create 4; memo = Hashtbl.create 64; walked = []; union = [];
    vrp_memory = Hashtbl.create 64; seen = []; seen_at = Rtime.epoch; last_result = None;
    effective_vrps = [];
    index = Origin_validation.empty_index; log_epoch;
    tlog = Tlog.create ~log_id:(Rp_store.log_id ~name ~epoch:log_epoch);
    peer_heads = []; log_baseline = 0; tkey = None; sth_cache = None;
    persist_marks = []; point_history = Hashtbl.create 16 }

let name t = t.name
let asn t = t.asn
let vrps t = t.effective_vrps
let last_result t = t.last_result

let transparency_log t = t.tlog
let log_epoch t = t.log_epoch

let peer_heads t = t.peer_heads

let note_peer_head t ~peer head =
  t.peer_heads <- (peer, head) :: List.remove_assoc peer t.peer_heads

(* VRPs this vantage last validated out of one publication point — which
   prefixes a fork at that point can affect (feeds the evidence-triggered
   RTR hold). *)
let point_vrps t ~uri =
  match Hashtbl.find_opt t.memo uri with
  | None -> []
  | Some entries ->
    List.sort_uniq Vrp.compare
      (List.concat_map (fun (_, m) -> m.outcome.Valcache.o_vrps) entries)

(* Every memoized outcome, with its point's URI: the raw memo that
   [point_vrps] reads one URI of. *)
let memoized t =
  Hashtbl.fold
    (fun uri entries acc ->
      List.fold_left (fun acc (_, m) -> (uri, m.outcome.Valcache.o_vrps) :: acc) acc entries)
    t.memo []

(* The vantage's tree-head signing key, generated on first use (keygen is
   too costly to pay at [create] for the many RPs that never gossip).
   [Gossip.create] forces it for every vantage it meshes, on several
   Domains; the key depends only on the name, so when it is made never
   changes it. *)
let transparency_keypair t =
  match t.tkey with
  | Some k -> k
  | None ->
    let rng =
      Rpki_crypto.Drbg.to_rng (Rpki_crypto.Drbg.create ~seed:("rp-log:" ^ t.name))
    in
    let k = Rpki_crypto.Rsa.generate rng in
    t.tkey <- Some k;
    k

let transparency_key t = (transparency_keypair t).Rpki_crypto.Rsa.public

let tree_head t ~now = Rpki_transparency.Log.head t.tlog ~at:now

(* The kept signed head stands for the tree [h] when it has the same log
   id, size and root, whatever its [h_at]. *)
let signs_tree (c : Rpki_transparency.Log.signed_head) (h : Rpki_transparency.Log.head) =
  let ch = c.Rpki_transparency.Log.sh_head in
  ch.Rpki_transparency.Log.h_size = h.Rpki_transparency.Log.h_size
  && String.equal ch.Rpki_transparency.Log.h_root h.Rpki_transparency.Log.h_root
  && String.equal ch.Rpki_transparency.Log.h_log_id h.Rpki_transparency.Log.h_log_id

let head_signed t ~now =
  match t.sth_cache with Some c -> signs_tree c (tree_head t ~now) | None -> false

let signed_tree_head t ~now =
  let h = tree_head t ~now in
  match t.sth_cache with
  | Some c when signs_tree c h -> c
  | _ ->
    let sth =
      Rpki_transparency.Log.sign_head
        ~key:(transparency_keypair t).Rpki_crypto.Rsa.private_ h
    in
    t.sth_cache <- Some sth;
    sth

(* Drop cached snapshots, memoized validations and grace memory (manual
   operator intervention; the paper notes recovery from Side Effect 7
   requires exactly this kind of manual fix).  The diff baseline survives:
   the next sync still reports the change relative to the last result. *)
let flush_cache t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.rrdp_clients;
  Hashtbl.reset t.memo;
  Hashtbl.reset t.vrp_memory;
  t.seen <- []

let history_depth = 8

(* Record the state [uri] served this sync.  A re-observed hash moves to the
   front (it *is* the newest state again); depth is bounded so long runs
   keep O(points) history, not O(history). *)
let note_point_state t ~uri ~vrp_hash vrps =
  match Option.value (Hashtbl.find_opt t.point_history uri) ~default:[] with
  | newest :: _ when String.equal newest.ps_vrp_hash vrp_hash ->
    () (* already the newest state: the hash names one sorted set *)
  | prior ->
    let prior = List.filter (fun ps -> not (String.equal ps.ps_vrp_hash vrp_hash)) prior in
    (* canonical (sorted, deduplicated) form, same as {!point_vrps}, so a
       rolled-back last-good is indistinguishable from a freshly validated one *)
    let entry =
      { ps_vrp_hash = vrp_hash; ps_vrps = List.sort_uniq Vrp.compare vrps }
    in
    Hashtbl.replace t.point_history uri
      (List.filteri (fun i _ -> i < history_depth) (entry :: prior))

(* The honest-side rollback: gossip has proved a fork at [uri] and
   identified the proven-honest side's VRP-set hash; return the VRP
   contribution this vantage itself validated under that hash, newest such
   state first.  [None] when this vantage never validated that state (e.g.
   a fresh post-restart incarnation) — the caller's hold then pins nothing
   for the point, which fails closed. *)
let rollback_last_good t ~uri ~vrp_hash =
  match Hashtbl.find_opt t.point_history uri with
  | None -> None
  | Some hist ->
    Option.map (fun ps -> ps.ps_vrps)
      (List.find_opt (fun ps -> String.equal ps.ps_vrp_hash vrp_hash) hist)

(* Deterministic retry backoff: exponential in the attempt number plus a
   per-(uri, attempt) jitter derived by hashing — no RNG state, so a sync
   under a fault-free transport never consults it and stays bit-for-bit
   reproducible. *)
let backoff_delay policy ~uri ~attempt =
  if policy.backoff <= 0 then 0
  else (policy.backoff * (1 lsl min attempt 6)) + (Hashtbl.hash (uri, attempt) mod policy.backoff)

(* --- one sync --------------------------------------------------------------

   A sync runs three stages over one [run] record, made by {!sync} and
   dropped when it returns: {e fetch} brings one point's listing down the
   channel ladder under the budget; the {e walk} goes depth first from each
   trust anchor, replays or validates each point ({!Point.validate}) and
   logs the state it served; the {e commit} turns the walked VRPs into the
   effective set, its diff and the result. *)

type run = {
  rp : t;
  now : Rtime.t;
  universe : Universe.t;
  transport : Transport.t;
  policy : fetch_policy;
  valcache : Valcache.t option;
  verify : Validation.verifier option;
  (* signature checks route through the shared verdict cache when one is
     attached; otherwise straight to Rsa.verify *)
  seen_keys : (string, unit) Hashtbl.t; (* CAs walked, by key id *)
  mutable clock : int; (* transport time spent *)
  mutable exhausted : bool;
  (* the accumulators below are newest first *)
  mutable issues : issue list;
  mutable transfers : transfer list;
  mutable walked : Vrp.t list list;
  mutable cas : string list;
  mutable failed : Resources.t;
  (* resources claimed by CAs that failed to validate this sync — the
     unsafe-VRP analysis' input.  Tracked unconditionally (it is cheap);
     the per-VRP overlap scan only runs under Warn/Reject. *)
  mutable reused : int;
  mutable revalidated : int;
  mutable appended : int;
  mutable regressions : regression list;
}

let problem run ~uri ?filename kind reason =
  run.issues <- { uri; filename; kind; reason } :: run.issues

let note_failed run rs = run.failed <- Resources.union run.failed rs

(* --- fetch: live -> mirror -> RRDP -> stale cache, under the budget --- *)

let spend run dt = run.clock <- run.clock + dt
let remaining run = run.policy.sync_budget - run.clock

let out_of_budget run =
  if remaining run <= 0 then (run.exhausted <- true; true) else false

(* One timed request, for every channel: its timeout is the point timeout
   capped by what is left of the budget, and whatever it took is spent;
   [None] when no budget was left to send it.  An RRDP notification
   endpoint is priced and faulted like any point; the listing it answers
   with goes unused, its client syncs from the server. *)
let request run ~attempts point =
  if out_of_budget run then None
  else begin
    incr attempts;
    let timeout = min run.policy.point_timeout (remaining run) in
    let reply = Transport.fetch run.transport ~point ~timeout in
    spend run
      (match reply with
      | Transport.Served { elapsed; _ } | Transport.Stalled { elapsed }
      | Transport.Unroutable { elapsed } -> elapsed);
    Some reply
  end

(* Channel 1: the live primary, with bounded retries on a stall.  [Error]
   is the issue kind and reason every later channel reports under. *)
let rec live run ~attempts ~uri pp attempt =
  match request run ~attempts pp with
  | Some (Transport.Served { files; fp; _ }) -> Ok (files, fp)
  | None -> Error (Validation.Ik_budget_exhausted, "skipped: sync budget exhausted")
  | Some (Transport.Stalled _) when attempt < run.policy.retries ->
    spend run (min (backoff_delay run.policy ~uri ~attempt) (max 0 (remaining run)));
    live run ~attempts ~uri pp (attempt + 1)
  | Some (Transport.Stalled _) ->
    Error (Validation.Ik_transport_timeout, "stalled past the fetch timeout")
  | Some (Transport.Unroutable _) -> (
    (* no route: retrying within this sync cannot help.  The fault table
       tells refused / DNS / redirect failures apart — same price,
       different attribution (the corpus records them as distinct
       outcomes). *)
    match Transport.fault_of run.transport ~uri with
    | Transport.Refused -> Error (Validation.Ik_transport_refused, "connection refused")
    | Transport.Dns_failure ->
      Error (Validation.Ik_transport_dns, "no address associated with name")
    | Transport.Redirect origin ->
      Error (Validation.Ik_transport_redirect, Printf.sprintf "cross-origin redirect to %s" origin)
    | _ -> Error (Validation.Ik_transport_unreachable, "unreachable"))

(* Channels 2 and 3, after the primary failed with [(kind, why)]: the
   rsync mirrors in registration order, then the RRDP delta service (RFC
   8182), priced and faulted through its own endpoint.  Gives the status,
   the channel's name on the transfer, the issue and the copy. *)
let fallback run ~attempts ~uri (kind, why) =
  let issue how = Some (kind, Printf.sprintf "primary %s; %s" why how) in
  let rec mirrors = function
    | [] -> None
    | mirror :: rest -> (
      match request run ~attempts mirror with
      | Some (Transport.Served { files; fp; _ }) ->
        let at = Pub_point.uri mirror in
        Some (Fetched_mirror, "mirror:" ^ at, issue ("fetched mirror " ^ at), (files, fp))
      | Some (Transport.Stalled _ | Transport.Unroutable _) -> mirrors rest
      | None -> None)
  in
  let rrdp (endpoint, server) =
    match request run ~attempts endpoint with
    | None | Some (Transport.Stalled _ | Transport.Unroutable _) -> None
    | Some (Transport.Served _) -> (
      let clients = run.rp.rrdp_clients in
      let client = Option.value (Hashtbl.find_opt clients uri) ~default:(Rrdp.create_client ()) in
      Hashtbl.replace clients uri client;
      match Rrdp.sync client server with
      | exception Rrdp.Desync msg ->
        problem run ~uri Validation.Ik_rrdp_desync (Printf.sprintf "RRDP desync: %s" msg);
        Hashtbl.remove clients uri;
        None
      | _ ->
        let files = Rrdp.client_files client and at = Pub_point.uri endpoint in
        Some
          ( Fetched_rrdp, "rrdp:" ^ at, issue ("synced via RRDP " ^ at),
            (files, Pub_point.fingerprint_of_listing files) ))
  in
  match
    if run.policy.use_mirrors then mirrors (Universe.mirrors_of run.universe uri) else None
  with
  | Some _ as served -> served
  | None when run.policy.use_rrdp -> Option.bind (Universe.rrdp_of run.universe uri) rrdp
  | None -> None

(* One point's listing and fingerprint, with its transfer recorded and
   every channel's failure an issue.  Channel 4, the stale local copy,
   serves when every other channel failed, its age on the record.
   Fallback issues keep the kind of the {e primary} failure, so the
   per-category counters attribute the underlying transport problem even
   when a fallback channel saved the sync. *)
let fetch run uri =
  let attempts = ref 0 in
  let spent_before = run.clock in
  let record status channel data_age =
    run.transfers <-
      { t_uri = uri; t_status = status; t_channel = channel; t_attempts = !attempts;
        t_elapsed = run.clock - spent_before; t_data_age = data_age }
      :: run.transfers
  in
  match Universe.find run.universe uri with
  | None ->
    record Unavailable "none" 0;
    problem run ~uri Validation.Ik_no_publication_point "no such publication point";
    None
  | Some pp -> (
    let served =
      match live run ~attempts ~uri pp 0 with
      | Ok copy -> Ok (Fetched, "live", None, copy)
      | Error failure -> Option.to_result ~none:failure (fallback run ~attempts ~uri failure)
    in
    match served with
    | Ok (status, channel, issue, ((files, fp) as copy)) ->
      Hashtbl.replace run.rp.cache uri { cp_files = files; cp_fp = fp; cp_at = run.now };
      record status channel 0;
      Option.iter (fun (kind, reason) -> problem run ~uri kind reason) issue;
      Some copy
    | Error (kind, why) -> (
      match Hashtbl.find_opt run.rp.cache uri with
      | Some cp when run.policy.use_stale && run.rp.use_stale ->
        record Stale_cache "cache" (Rtime.diff run.now cp.cp_at);
        problem run ~uri kind (Printf.sprintf "publication point %s; using stale cache" why);
        Some (cp.cp_files, cp.cp_fp)
      | _ ->
        record Unavailable "none" 0;
        problem run ~uri kind (Printf.sprintf "publication point %s" why);
        None))

(* --- walk: depth first from each trust anchor --- *)

(* The outcome of [ca_cert]'s point for this listing: the private memo's
   while it is current, else the shared plane's, else a validation that
   replays each unchanged object from this vantage's last validation of
   the point.  A memo entry survives a change of [now] iff [now] falls on
   the same side of every boundary the original validation compared
   against — the rule is shared with the cross-vantage cache. *)
let outcome run ~uri ~key ~ca_cert ~parent_fp ~snap_fp snapshot =
  let now = run.now in
  let entries = Option.value (Hashtbl.find_opt run.rp.memo uri) ~default:[] in
  let memo = List.assoc_opt key entries in
  match memo with
  | Some { outcome = e; _ }
    when String.equal e.Valcache.o_parent_fp parent_fp
         && String.equal e.Valcache.o_snap_fp snap_fp && Valcache.outcome_current e ~now ->
    run.reused <- run.reused + 1;
    e
  | _ ->
    (* a per-vantage miss; [reused]/[revalidated] count only this private
       memo, so the sync result is identical whether the miss is then
       served by the shared plane or by validation.  A shared outcome is
       rebased to [now] — sound because {!Valcache.find_point} already
       checked that [now] sits on the same side of every recorded boundary,
       so a fresh validation at [now] would produce exactly this entry. *)
    run.revalidated <- run.revalidated + 1;
    let prev = Option.bind memo (fun m -> m.files) in
    let validate () =
      let e, files =
        Point.validate ?verify:run.verify ?prev ~now ~ca_cert ~parent_fp ~snap_fp snapshot
      in
      (e, Some files)
    in
    let e, files =
      match run.valcache with
      | None -> validate ()
      | Some vc -> (
        match Valcache.find_point vc ~parent_fp ~snap_fp ~now with
        | Some o -> ({ o with Valcache.o_at = now }, prev)
        | None ->
          let ((e, _) as validated) = validate () in
          Valcache.store_point vc e;
          validated)
    in
    Hashtbl.replace run.rp.memo uri
      ((key, { outcome = e; files }) :: List.remove_assoc key entries);
    e

(* Transparency: record the state [uri] served this sync.  The leaf is
   content-addressed, so a memo replay of an unchanged point dedups to a
   no-op, while a split-view authority serving this vantage different
   bytes necessarily forks the log. *)
let observe run ~uri ~snap_fp (e : Valcache.outcome) =
  let t = run.rp in
  let ob =
    { Tlog.ob_uri = uri;
      ob_serial = e.Valcache.o_mft_number;
      ob_manifest_hash = e.Valcache.o_mft_hash;
      ob_vrp_hash = e.Valcache.o_vrp_hash;
      ob_snapshot_fp = snap_fp;
      ob_at = run.now }
  in
  let prev = Tlog.latest_for t.tlog ~uri in
  (match Tlog.append t.tlog ob with
  | `Appended _ ->
    run.appended <- run.appended + 1;
    (* corpus-style manifest-number anomalies, judged against this run's
       own history for the point (serial 0 means "no manifest served" and
       is excluded — that is already a missing-manifest issue).  A leap
       past the honest-churn threshold is a seqnum gap; any step backwards
       is a manifest-number regression. *)
    (match prev with
    | Some p when ob.Tlog.ob_serial > 0 && p.Tlog.ob_serial > 0 ->
      let prev_serial = p.Tlog.ob_serial and now_serial = ob.Tlog.ob_serial in
      if now_serial - prev_serial > seqnum_gap_threshold then
        problem run ~uri Validation.Ik_seqnum_gap
          (Printf.sprintf "seqnum gap detected: manifest #%d -> #%d" prev_serial now_serial)
      else if now_serial < prev_serial then
        problem run ~uri Validation.Ik_manifest_regression
          (Printf.sprintf "manifest number lower than expected: #%d -> #%d" prev_serial
             now_serial)
    | _ -> ());
    (* the point's state changed — does it contradict the history this
       instance *restored from disk*?  A lower manifest number than the
       restored baseline recorded is a served rollback; a different state
       under a baseline-recorded number is equivocation.  Within one
       continuous run (baseline 0, or leaves appended since restore) a
       change is ordinary churn/corruption, not a regression: only
       pre-restart history makes the past contradictable. *)
    let in_baseline ~serial =
      match Tlog.find t.tlog ~uri ~serial with
      | Some (i, _) -> i < t.log_baseline
      | None -> false
    in
    let regressed r = run.regressions <- r :: run.regressions in
    (match prev with
    | Some p when ob.Tlog.ob_serial < p.Tlog.ob_serial && in_baseline ~serial:p.Tlog.ob_serial ->
      regressed (Serial_regression { rg_uri = uri; rg_prev = p; rg_now = ob })
    | _ -> ());
    (match Tlog.find t.tlog ~uri ~serial:ob.Tlog.ob_serial with
    | Some (i, prior) when i < t.log_baseline && not (Tlog.observation_equal prior ob) ->
      regressed (Content_equivocation { rg_uri = uri; rg_index = i; rg_prev = prior; rg_now = ob })
    | _ -> ())
  | `Unchanged -> ());
  note_point_state t ~uri ~vrp_hash:ob.Tlog.ob_vrp_hash e.Valcache.o_vrps

(* Validate and walk one CA's publication point.  [parent_fp] is the
   SHA-256 of the bytes [ca_cert] was decoded from. *)
let rec walk run ((ca_cert : Cert.t), parent_fp) =
  let key = Cert.key_id ca_cert in
  if not (Hashtbl.mem run.seen_keys key) then begin
    Hashtbl.add run.seen_keys key ();
    run.cas <- ca_cert.Cert.subject :: run.cas;
    match ca_cert.Cert.repo_uri with
    | None ->
      note_failed run ca_cert.Cert.resources;
      problem run ~uri:"-" Validation.Ik_no_publication_point
        (Printf.sprintf "CA %s has no repository" ca_cert.Cert.subject)
    | Some uri -> (
      match fetch run uri with
      | None ->
        (* every channel failed and nothing was cached: the CA's whole
           subtree is invisible this sync, so its claimed resources join
           the failed set the unsafe-VRP analysis scans against *)
        note_failed run ca_cert.Cert.resources
      | Some (snapshot, snap_fp) ->
        let e = outcome run ~uri ~key ~ca_cert ~parent_fp ~snap_fp snapshot in
        List.iter
          (fun (filename, kind, reason) -> problem run ~uri ?filename kind reason)
          e.Valcache.o_issues;
        run.walked <- e.Valcache.o_vrps :: run.walked;
        note_failed run e.Valcache.o_failed_resources;
        observe run ~uri ~snap_fp e;
        List.iter (walk run) e.Valcache.o_children)
  end

(* A trust anchor: its certificate from the TAL's point, checked against
   the TAL's key, then its subtree. *)
let walk_tal run tal =
  match fetch run tal.ta_uri with
  | None -> ()
  | Some (snapshot, _) -> (
    let problem = problem run ~uri:tal.ta_uri ~filename:tal.ta_cert_filename in
    match List.assoc_opt tal.ta_cert_filename snapshot with
    | None -> problem Validation.Ik_missing_object "TA certificate missing"
    | Some bytes -> (
      match Cert.decode bytes with
      | Error e -> problem Validation.Ik_malformed e
      | Ok cert -> (
        match
          Validation.validate_trust_anchor ?verify:run.verify ~now:run.now
            ~expected_key:tal.ta_key cert
        with
        | Ok () -> walk run (cert, Rpki_crypto.Sha256.digest bytes)
        | Error f -> problem (Validation.failure_kind f) (Validation.failure_to_string f))))

(* --- commit: the walked VRPs become the effective set --- *)

(* Grace: remember when each VRP was last seen; resurrect those seen within
   the grace window.  Every VRP of [current] is seen now, so memory holds
   only those that left it: one that leaves [seen] was last seen at
   [seen_at], and one that comes back is forgotten until it leaves
   again. *)
let with_grace run ~grace current =
  let t = run.rp and now = run.now in
  if current != t.seen then begin
    let d = Vrp.diff_of ~before:t.seen ~after:current in
    List.iter (fun v -> Hashtbl.replace t.vrp_memory v t.seen_at) d.Vrp.removed;
    List.iter (Hashtbl.remove t.vrp_memory) d.Vrp.added
  end;
  t.seen <- current;
  t.seen_at <- now;
  let held =
    Hashtbl.fold
      (fun v last acc -> if Rtime.( <= ) (Rtime.diff now last) grace then v :: acc else acc)
      t.vrp_memory []
    |> List.sort Vrp.compare
  in
  List.iter
    (fun v ->
      problem run ~uri:"-" Validation.Ik_grace_hold
        (Printf.sprintf "grace: holding disappeared VRP %s" (Vrp.to_string v)))
    held;
  if held = [] then current else List.sort_uniq Vrp.compare (current @ held)

(* Routinator-style unsafe-VRP analysis: a VRP whose prefix overlaps the
   resources of a CA that failed this sync.  [Unsafe_accept] skips the
   scan entirely — the pre-existing behavior, byte for byte.  Warn and
   Reject both report the set; Reject additionally withdraws it from the
   effective VRPs (and thus from the index, the diff and RTR).  Gives the
   unsafe set and the effective set. *)
let unsafe_analysis run effective =
  match run.policy.unsafe with
  | Unsafe_accept -> ([], effective)
  | Unsafe_warn | Unsafe_reject ->
    let unsafe =
      if Resources.is_empty run.failed then []
      else
        List.filter
          (fun (v : Vrp.t) ->
            Resources.overlaps
              (Resources.make ~v4:(Rpki_ip.V4.Set.of_prefix v.Vrp.prefix) ())
              run.failed)
          effective
    in
    List.iter
      (fun v ->
        problem run ~uri:"-" Validation.Ik_unsafe_vrp
          (Printf.sprintf "unsafe VRP %s: overlaps resources of a CA that failed to validate (%s)"
             (Vrp.to_string v) (unsafe_policy_to_string run.policy.unsafe)))
      unsafe;
    ( unsafe,
      if run.policy.unsafe = Unsafe_reject && unsafe <> [] then
        List.filter (fun v -> not (List.exists (fun u -> Vrp.compare u v = 0) unsafe)) effective
      else effective )

let commit run =
  let t = run.rp in
  (* the sorted union of every point's VRPs: the last sync's, when each
     point gave back the very list it gave then *)
  let current =
    if List.equal ( == ) run.walked t.walked then t.union
    else List.sort_uniq Vrp.compare (List.concat run.walked)
  in
  t.walked <- run.walked;
  t.union <- current;
  let effective =
    match t.grace with None -> current | Some grace -> with_grace run ~grace current
  in
  let unsafe_vrps, effective = unsafe_analysis run effective in
  (* The diff against the previous sync is the currency everything
     downstream consumes: it patches the trie here and becomes the RTR
     serial delta in the simulation loop. *)
  let diff =
    if effective == t.effective_vrps then Vrp.empty_diff
    else Vrp.diff_of ~before:t.effective_vrps ~after:effective
  in
  t.index <- Origin_validation.apply_diff t.index diff;
  t.effective_vrps <- effective;
  let transfers = List.rev run.transfers in
  let result =
    { vrps = effective;
      unsafe_vrps;
      failed_resources = run.failed;
      issues = List.rev run.issues;
      fetches = List.map (fun tr -> (tr.t_uri, tr.t_status)) transfers;
      transfers;
      sync_elapsed = run.clock;
      budget_exhausted = run.exhausted;
      cas_validated = List.rev run.cas;
      index = t.index;
      diff;
      points_reused = run.reused;
      points_revalidated = run.revalidated;
      observations_appended = run.appended;
      regressions = List.rev run.regressions;
      tree_head = tree_head t ~now:run.now }
  in
  t.last_result <- Some result;
  result

let sync t ~now ~universe ?transport ?(policy = default_policy) ?valcache () =
  let run =
    { rp = t; now; universe;
      transport = (match transport with Some tr -> tr | None -> Transport.instant ());
      policy; valcache; verify = Option.map Valcache.verify valcache;
      seen_keys = Hashtbl.create 16; clock = 0; exhausted = false;
      issues = []; transfers = []; walked = []; cas = []; failed = Resources.empty;
      reused = 0; revalidated = 0; appended = 0; regressions = [] }
  in
  List.iter (walk_tal run) t.tals;
  commit run

(* The worst data staleness a sync accepted: 0 when every point came from a
   fresh channel, the oldest cache age otherwise.  Monitors alarm on it and
   the RTR layer surfaces it next to its serial. *)
let max_data_age (result : sync_result) =
  List.fold_left (fun acc tr -> max acc tr.t_data_age) 0 result.transfers

(* --- persistence: {!Rp_store}'s format, bound to this vantage -----------

   Restore is fail-closed: a snapshot that is missing, corrupt, stale, or
   internally inconsistent (rehydrated log disagreeing with its own signed
   head) yields [Recovered_fresh] with a typed reason.  It never crashes and
   never silently trusts. *)

type fresh_reason =
  | No_snapshot
  | Snapshot_corrupt of string
  | Snapshot_stale of { snap_generation : int; marker : int }
  | Log_inconsistent of string

let fresh_reason_to_string = function
  | No_snapshot -> "no snapshot"
  | Snapshot_corrupt why -> Printf.sprintf "snapshot corrupt: %s" why
  | Snapshot_stale { snap_generation; marker } ->
    Printf.sprintf "snapshot stale: generation %d behind marker %d" snap_generation marker
  | Log_inconsistent why -> Printf.sprintf "log inconsistent: %s" why

type recovery =
  | Recovered of { rc_generation : int; rc_saved_at : int; rc_rtr_serial : int }
  | Recovered_fresh of fresh_reason

let recovery_to_string = function
  | Recovered r ->
    Printf.sprintf "recovered generation %d (saved @t%d, rtr serial %d)" r.rc_generation
      r.rc_saved_at r.rc_rtr_serial
  | Recovered_fresh reason -> Printf.sprintf "fresh start: %s" (fresh_reason_to_string reason)

let other_marks t store =
  List.filter (fun (s, _) -> not (Rpki_persist.Store.same s store)) t.persist_marks

let set_mark t store mark = t.persist_marks <- (store, mark) :: other_marks t store

let save t ~now ?(rtr_serial = 0) ?(mode = `Auto) store =
  let p =
    { Rp_store.p_name = t.name; p_asn = t.asn; p_epoch = t.log_epoch; p_rtr_serial = rtr_serial;
      p_sth = signed_tree_head t ~now; p_log = t.tlog; p_peers = t.peer_heads;
      p_vrps = t.effective_vrps }
  in
  let mark =
    match mode with
    | `Full -> None
    | `Auto -> (
      match List.find_opt (fun (s, _) -> Rpki_persist.Store.same s store) t.persist_marks with
      | Some (_, m)
        when Rpki_persist.Store.snapshot_bytes store > 0
             && m.Rp_store.pm_obs <= Tlog.size t.tlog
             && String.equal m.Rp_store.pm_head.Tlog.h_log_id (Tlog.log_id t.tlog) ->
        Some m
      | _ ->
        None
        (* no usable mark (first save, wiped store, the last save's file
           damaged or lost to a dropped rename, log reset): full save *))
  in
  let sealed =
    match mark with
    | None -> Rpki_persist.Store.save store ~now (Rp_store.base p)
    | Some m -> Rpki_persist.Store.append store ~now (Rp_store.segment p ~since:m)
  in
  (* a file that did not read back intact ends a chain no restore accepts:
     drop the mark, so the next save writes a base over it *)
  if sealed.Rpki_persist.Store.intact then set_mark t store (Rp_store.mark p)
  else t.persist_marks <- other_marks t store;
  sealed.Rpki_persist.Store.generation

(* A chain the reader refuses is reported before [Store.compact] writes
   anything, so the store is left as it was. *)
let compact_store store ~now =
  Rpki_persist.Store.compact store ~now ~fold:(fun containers ->
      match Rp_store.read_chain containers with
      | Ok p -> Ok (Rp_store.base p)
      | Error why -> Error ("chain refused: " ^ why))

let restore t store =
  match Rpki_persist.Store.load_chain store with
  | Error Rpki_persist.Store.No_snapshot -> Recovered_fresh No_snapshot
  | Error (Rpki_persist.Store.Corrupt why) -> Recovered_fresh (Snapshot_corrupt why)
  | Error (Rpki_persist.Store.Stale { snap_generation; marker }) ->
    Recovered_fresh (Snapshot_stale { snap_generation; marker })
  | Ok containers -> (
    (* the chain reader, then the two checks bound to this vantage *)
    let checked =
      Result.bind (Rp_store.read_chain containers) (fun (p : Rp_store.persisted) ->
          if not (String.equal p.p_name t.name) then
            Error (Printf.sprintf "snapshot belongs to vantage %S, not %S" p.p_name t.name)
          else if not (Tlog.verify_head ~key:(transparency_key t) p.p_sth) then
            Error "persisted tree head signature does not verify"
          else Ok p)
    in
    match checked with
    | Error why -> Recovered_fresh (Log_inconsistent why)
    | Ok p ->
      let newest = List.nth containers (List.length containers - 1) in
      t.log_epoch <- p.p_epoch;
      t.tlog <- p.p_log;
      t.log_baseline <- Tlog.size p.p_log;
      t.peer_heads <- p.p_peers;
      t.effective_vrps <- p.p_vrps;
      t.index <- Origin_validation.build p.p_vrps;
      (* the verified final head and the restored set double as the next
         save's checkpoint and diff baseline, so the first post-restore save
         appends instead of rewriting history *)
      set_mark t store (Rp_store.mark p);
      Recovered
        { rc_generation = newest.Rpki_persist.Codec.s_generation;
          rc_saved_at = newest.Rpki_persist.Codec.s_saved_at;
          rc_rtr_serial = p.p_rtr_serial })
