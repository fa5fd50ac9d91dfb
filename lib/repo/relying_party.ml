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
   every validity-window boundary that outcome depended on.  A warm tick
   re-fetches (cheap: the fingerprint is cached on the point) but only
   re-validates points whose fingerprint, parent certificate, or
   time-window side changed.  The resulting VRP set is diffed against the
   previous tick's and the diff patches the origin-validation index in
   place; the same diff feeds the RTR cache as a serial delta.

   Equivalence invariant: a warm sync produces exactly the VRP set, index
   and classification results a cold from-scratch sync would.  Reuse is
   only ever taken when (a) the listing bytes are fingerprint-identical,
   (b) the issuing certificate is byte-identical, and (c) [now] sits on the
   same side of every validity boundary the original validation consulted —
   validation's only dependence on time is those window comparisons. *)

open Rpki_core

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

(* The memoized outcome of validating one publication point under one
   issuing certificate.  The shape is {!Valcache.outcome} — URI-free, a
   pure function of (issuing certificate bytes, listing bytes, window
   sides) — so an outcome computed by one vantage can be replayed verbatim
   from the shared validation plane by any other vantage that observed the
   same content; each vantage re-attaches its own URI to the issues. *)
type memo_entry = Valcache.outcome

type cached_point = {
  cp_files : (string * string) list;
  cp_fp : string;
  cp_at : Rtime.t; (* when this copy was last confirmed fresh *)
}

(* Where incremental persistence left off against one store, kept only
   while the chain's last file read back intact: how many log observations
   the chain already holds, the head they were sealed under — the
   checkpoint the next segment's consistency proof starts from — and the
   VRP set the chain restores to, which the next segment's VRP diff is
   taken against.  One per store, so one vantage can save to several
   stores, even under one name on two disks. *)
type persist_mark = {
  pm_obs : int;
  pm_head : Rpki_transparency.Log.head;
  pm_vrps : Vrp.t list;
}

(* One state a publication point served this vantage, as this vantage
   validated it — the rollback layer's unit of "proven-honest state". *)
type point_state = {
  ps_vrp_hash : string;  (* vrp_set_hash of ps_vrps: the content address
                            gossip evidence carries *)
  ps_vrps : Vrp.t list;
}

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
  (* uri -> parent key id -> outcome *)
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
  mutable persist_marks : (Rpki_persist.Store.t * persist_mark) list;
  (* one mark per store (the same disk and name), newest first *)
  point_history : (string, point_state list) Hashtbl.t;
  (* bounded per-uri history (newest first) of the VRP contributions this
     vantage itself validated.  {!rollback_last_good} searches it when
     gossip proves a fork late: the entry matching the proven-honest side's
     VRP-set hash is the state the RTR hold should freeze at.  Process
     state only — after a restart the history is empty and rollback
     degrades to pinning nothing, which is fail-closed. *)
}

(* Epoch 0 keeps the PR-3 log id (= the vantage name); later incarnations are
   visibly distinct logs. *)
let log_id_for ~name ~epoch =
  if epoch = 0 then name else Printf.sprintf "%s/e%d" name epoch

let create ~name ~asn ~tals ?(use_stale = true) ?grace ?(log_epoch = 0) () =
  { name; asn; tals; use_stale; grace; cache = Hashtbl.create 16;
    rrdp_clients = Hashtbl.create 4; memo = Hashtbl.create 64; walked = []; union = [];
    vrp_memory = Hashtbl.create 64; seen = []; seen_at = Rtime.epoch; last_result = None;
    effective_vrps = [];
    index = Origin_validation.empty_index; log_epoch;
    tlog = Rpki_transparency.Log.create ~log_id:(log_id_for ~name ~epoch:log_epoch);
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
      (List.concat_map (fun (_, (e : memo_entry)) -> e.Valcache.o_vrps) entries)

(* Every memoized outcome, with its point's URI: the raw memo that
   [point_vrps] reads one URI of. *)
let memoized t =
  Hashtbl.fold
    (fun uri entries acc ->
      List.fold_left (fun acc (_, (e : memo_entry)) -> (uri, e.Valcache.o_vrps) :: acc) acc entries)
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

let signed_tree_head t ~now =
  let h = tree_head t ~now in
  let same (c : Rpki_transparency.Log.signed_head) =
    let ch = c.Rpki_transparency.Log.sh_head in
    ch.Rpki_transparency.Log.h_size = h.Rpki_transparency.Log.h_size
    && String.equal ch.Rpki_transparency.Log.h_root h.Rpki_transparency.Log.h_root
    && String.equal ch.Rpki_transparency.Log.h_log_id h.Rpki_transparency.Log.h_log_id
  in
  match t.sth_cache with
  | Some c when same c -> c
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

(* Canonical digest of a point's VRP contribution — one of the
   content-addressed fields of a transparency observation.  Taken once per
   validation, into the outcome's [o_vrp_hash]. *)
let vrp_set_hash vrps =
  Rpki_crypto.Sha256.digest
    (String.concat "\n" (List.map Vrp.to_string (List.sort_uniq Vrp.compare vrps)))

(* A memo entry survives a change of [now] iff [now] falls on the same side
   of every boundary the original validation compared against — the rule is
   shared with the cross-vantage cache. *)
let entry_current (entry : memo_entry) ~now = Valcache.outcome_current entry ~now

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

let sync t ~now ~universe ?transport ?(policy = default_policy) ?valcache () =
  let transport = match transport with Some tr -> tr | None -> Transport.instant () in
  let allow_stale = policy.use_stale && t.use_stale in
  let issues = ref [] in
  let walked = ref [] in
  let fetches = ref [] in
  let transfers = ref [] in
  let cas = ref [] in
  let reused = ref 0 in
  let revalidated = ref 0 in
  let appended = ref 0 in
  let regressions = ref [] in
  let clock = ref 0 in
  let exhausted = ref false in
  let seen_keys = Hashtbl.create 16 in
  (* signature checks route through the shared verdict cache when one is
     attached; otherwise straight to Rsa.verify *)
  let verify =
    match valcache with
    | Some vc -> Some (Valcache.verify vc)
    | None -> None
  in
  let problem ~uri ?filename kind reason =
    issues := { uri; filename; kind; reason } :: !issues
  in
  (* resources claimed by CAs that failed to validate this sync — the
     unsafe-VRP analysis' input.  Tracked unconditionally (it is cheap);
     the per-VRP overlap scan only runs under Warn/Reject. *)
  let failed_resources = ref Resources.empty in
  let note_failed rs = failed_resources := Resources.union !failed_resources rs in
  let remember uri snap fp =
    Hashtbl.replace t.cache uri { cp_files = snap; cp_fp = fp; cp_at = now }
  in
  let spend dt = clock := !clock + dt in
  let remaining () = policy.sync_budget - !clock in
  let out_of_budget () =
    if remaining () <= 0 then (exhausted := true; true) else false
  in
  let fetch uri =
    let attempts = ref 0 in
    let spent_before = !clock in
    let record status channel data_age =
      transfers :=
        { t_uri = uri; t_status = status; t_channel = channel; t_attempts = !attempts;
          t_elapsed = !clock - spent_before; t_data_age = data_age }
        :: !transfers;
      fetches := (uri, status) :: !fetches
    in
    match Universe.find universe uri with
    | None ->
      record Unavailable "none" 0;
      problem ~uri Validation.Ik_no_publication_point "no such publication point";
      None
    | Some pp ->
      (* channel 1: the live primary, with bounded retries on a stall *)
      let rec live attempt =
        if out_of_budget () then `Give_up
        else begin
          incr attempts;
          let timeout = min policy.point_timeout (remaining ()) in
          match Transport.fetch transport ~point:pp ~timeout with
          | Transport.Served { files; fp; elapsed } ->
            spend elapsed;
            `Served (files, fp)
          | Transport.Stalled { elapsed } ->
            spend elapsed;
            if attempt < policy.retries then begin
              spend (min (backoff_delay policy ~uri ~attempt) (max 0 (remaining ())));
              live (attempt + 1)
            end
            else `Failed (Validation.Ik_transport_timeout, "stalled past the fetch timeout")
          | Transport.Unroutable { elapsed } ->
            (* no route: retrying within this sync cannot help.  The fault
               table tells refused / DNS / redirect failures apart — same
               price, different attribution (the corpus records them as
               distinct outcomes). *)
            spend elapsed;
            let attribution =
              match Transport.fault_of transport ~uri with
              | Transport.Refused -> (Validation.Ik_transport_refused, "connection refused")
              | Transport.Dns_failure ->
                (Validation.Ik_transport_dns, "no address associated with name")
              | Transport.Redirect origin ->
                ( Validation.Ik_transport_redirect,
                  Printf.sprintf "cross-origin redirect to %s" origin )
              | _ -> (Validation.Ik_transport_unreachable, "unreachable")
            in
            `Failed attribution
        end
      in
      (* channel 2: rsync mirrors, in registration order *)
      let try_mirrors () =
        if not policy.use_mirrors then None
        else
          List.fold_left
            (fun acc mirror ->
              match acc with
              | Some _ -> acc
              | None ->
                if out_of_budget () then None
                else begin
                  incr attempts;
                  let timeout = min policy.point_timeout (remaining ()) in
                  match Transport.fetch transport ~point:mirror ~timeout with
                  | Transport.Served { files; fp; elapsed } ->
                    spend elapsed;
                    Some (mirror, files, fp)
                  | Transport.Stalled { elapsed } | Transport.Unroutable { elapsed } ->
                    spend elapsed;
                    None
                end)
            None (Universe.mirrors_of universe uri)
      in
      (* channel 3: the RRDP delta service (RFC 8182), priced and faulted
         through its own endpoint *)
      let try_rrdp () =
        if not policy.use_rrdp then None
        else
          match Universe.rrdp_of universe uri with
          | None -> None
          | Some (endpoint, server) ->
            if out_of_budget () then None
            else begin
              incr attempts;
              let timeout = min policy.point_timeout (remaining ()) in
              match Transport.probe transport ~point:endpoint ~timeout with
              | `Stalled dt | `Unroutable dt ->
                spend dt;
                None
              | `Ok dt -> (
                spend dt;
                let client =
                  match Hashtbl.find_opt t.rrdp_clients uri with
                  | Some c -> c
                  | None ->
                    let c = Rrdp.create_client () in
                    Hashtbl.replace t.rrdp_clients uri c;
                    c
                in
                match Rrdp.sync client server with
                | exception Rrdp.Desync msg ->
                  problem ~uri Validation.Ik_rrdp_desync (Printf.sprintf "RRDP desync: %s" msg);
                  Hashtbl.remove t.rrdp_clients uri;
                  None
                | _ ->
                  let files = Rrdp.client_files client in
                  Some (Pub_point.uri endpoint, files, Pub_point.fingerprint_of_listing files))
            end
      in
      (* channel 4: the stale local copy, its age on the record.  Fallback
         issues keep the kind of the *primary* failure, so the per-category
         counters attribute the underlying transport problem even when a
         fallback channel saved the sync. *)
      let stale (kind, why) =
        match Hashtbl.find_opt t.cache uri with
        | Some cp when allow_stale ->
          record Stale_cache "cache" (Rtime.diff now cp.cp_at);
          problem ~uri kind (Printf.sprintf "publication point %s; using stale cache" why);
          Some (cp.cp_files, cp.cp_fp)
        | _ ->
          record Unavailable "none" 0;
          problem ~uri kind (Printf.sprintf "publication point %s" why);
          None
      in
      (match live 0 with
      | `Served (files, fp) ->
        remember uri files fp;
        record Fetched "live" 0;
        Some (files, fp)
      | (`Failed _ | `Give_up) as failure -> (
        let ((kind, why) as attribution) =
          match failure with
          | `Failed attribution -> attribution
          | `Give_up -> (Validation.Ik_budget_exhausted, "skipped: sync budget exhausted")
        in
        match try_mirrors () with
        | Some (mirror, files, fp) ->
          remember uri files fp;
          record Fetched_mirror ("mirror:" ^ Pub_point.uri mirror) 0;
          problem ~uri kind
            (Printf.sprintf "primary %s; fetched mirror %s" why (Pub_point.uri mirror));
          Some (files, fp)
        | None -> (
          match try_rrdp () with
          | Some (ep_uri, files, fp) ->
            remember uri files fp;
            record Fetched_rrdp ("rrdp:" ^ ep_uri) 0;
            problem ~uri kind (Printf.sprintf "primary %s; synced via RRDP %s" why ep_uri);
            Some (files, fp)
          | None -> stale attribution)))
  in
  (* Validate and walk one CA's publication point.  [parent_fp] is the
     SHA-256 of the bytes [ca_cert] was decoded from. *)
  let rec process_ca ((ca_cert : Cert.t), parent_fp) =
    let key = Cert.key_id ca_cert in
    if Hashtbl.mem seen_keys key then ()
    else begin
      Hashtbl.add seen_keys key ();
      cas := ca_cert.Cert.subject :: !cas;
      match ca_cert.Cert.repo_uri with
      | None ->
        note_failed ca_cert.Cert.resources;
        problem ~uri:"-" Validation.Ik_no_publication_point
          (Printf.sprintf "CA %s has no repository" ca_cert.Cert.subject)
      | Some uri -> (
        match fetch uri with
        | None ->
          (* every channel failed and nothing was cached: the CA's whole
             subtree is invisible this sync, so its claimed resources join
             the failed set the unsafe-VRP analysis scans against *)
          note_failed ca_cert.Cert.resources
        | Some (snapshot, snap_fp) ->
          let entries = Option.value (Hashtbl.find_opt t.memo uri) ~default:[] in
          let entry =
            match List.assoc_opt key entries with
            | Some e
              when String.equal e.Valcache.o_parent_fp parent_fp
                   && String.equal e.Valcache.o_snap_fp snap_fp && entry_current e ~now ->
              incr reused;
              e
            | _ ->
              (* a per-vantage miss; [reused]/[revalidated] count only this
                 private memo, so the sync result is identical whether the
                 miss is then served by the shared plane or by fresh
                 validation.  A shared outcome is rebased to [now] — sound
                 because {!Valcache.find_point} already checked that [now]
                 sits on the same side of every recorded boundary, so a
                 fresh validation at [now] would produce exactly this entry. *)
              incr revalidated;
              let e =
                let fresh () = validate_point ~uri ~ca_cert ~parent_fp ~snapshot ~snap_fp in
                match valcache with
                | None -> fresh ()
                | Some vc -> (
                  match Valcache.find_point vc ~parent_fp ~snap_fp ~now with
                  | Some o -> { o with Valcache.o_at = now }
                  | None ->
                    let e = fresh () in
                    Valcache.store_point vc e;
                    e)
              in
              Hashtbl.replace t.memo uri ((key, e) :: List.remove_assoc key entries);
              e
          in
          issues :=
            List.rev_append
              (List.map (fun (filename, kind, reason) -> { uri; filename; kind; reason })
                 entry.Valcache.o_issues)
              !issues;
          walked := entry.Valcache.o_vrps :: !walked;
          note_failed entry.Valcache.o_failed_resources;
          (* transparency: record the state this point served us.  The leaf
             is content-addressed, so a memo replay of an unchanged point
             dedups to a no-op, while a split-view authority serving this
             vantage different bytes necessarily forks the log. *)
          let ob =
            { Rpki_transparency.Log.ob_uri = uri;
              ob_serial = entry.Valcache.o_mft_number;
              ob_manifest_hash = entry.Valcache.o_mft_hash;
              ob_vrp_hash = entry.Valcache.o_vrp_hash;
              ob_snapshot_fp = snap_fp;
              ob_at = now }
          in
          let prev = Rpki_transparency.Log.latest_for t.tlog ~uri in
          (match Rpki_transparency.Log.append t.tlog ob with
          | `Appended _ ->
            incr appended;
            (* corpus-style manifest-number anomalies, judged against this
               run's own history for the point (serial 0 means "no manifest
               served" and is excluded — that is already a missing-manifest
               issue).  A leap past the honest-churn threshold is a seqnum
               gap; any step backwards is a manifest-number regression. *)
            (match prev with
            | Some p
              when ob.Rpki_transparency.Log.ob_serial > 0
                   && p.Rpki_transparency.Log.ob_serial > 0 ->
              let prev_serial = p.Rpki_transparency.Log.ob_serial in
              let now_serial = ob.Rpki_transparency.Log.ob_serial in
              if now_serial - prev_serial > seqnum_gap_threshold then
                problem ~uri Validation.Ik_seqnum_gap
                  (Printf.sprintf "seqnum gap detected: manifest #%d -> #%d" prev_serial
                     now_serial)
              else if now_serial < prev_serial then
                problem ~uri Validation.Ik_manifest_regression
                  (Printf.sprintf "manifest number lower than expected: #%d -> #%d"
                     prev_serial now_serial)
            | _ -> ());
            (* the point's state changed — does it contradict the history this
               instance *restored from disk*?  A lower manifest number than the
               restored baseline recorded is a served rollback; a different
               state under a baseline-recorded number is equivocation.  Within
               one continuous run (baseline 0, or leaves appended since
               restore) a change is ordinary churn/corruption, not a
               regression: only pre-restart history makes the past
               contradictable. *)
            let in_baseline ~uri ~serial =
              match Rpki_transparency.Log.find t.tlog ~uri ~serial with
              | Some (i, _) -> i < t.log_baseline
              | None -> false
            in
            (match prev with
            | Some p
              when ob.Rpki_transparency.Log.ob_serial < p.Rpki_transparency.Log.ob_serial
                   && in_baseline ~uri ~serial:p.Rpki_transparency.Log.ob_serial ->
              regressions :=
                Serial_regression { rg_uri = uri; rg_prev = p; rg_now = ob } :: !regressions
            | _ -> ());
            (match Rpki_transparency.Log.find t.tlog ~uri ~serial:ob.Rpki_transparency.Log.ob_serial with
            | Some (i, prior)
              when i < t.log_baseline
                   && not (Rpki_transparency.Log.observation_equal prior ob) ->
              regressions :=
                Content_equivocation { rg_uri = uri; rg_index = i; rg_prev = prior; rg_now = ob }
                :: !regressions
            | _ -> ())
          | `Unchanged -> ());
          note_point_state t ~uri
            ~vrp_hash:ob.Rpki_transparency.Log.ob_vrp_hash entry.Valcache.o_vrps;
          List.iter process_ca entry.Valcache.o_children)
    end
  (* From-scratch validation of one point's contents, recording every
     validity boundary consulted so the outcome can be replayed at a
     different [now]. *)
  and validate_point ~uri ~ca_cert ~parent_fp ~snapshot ~snap_fp =
    ignore uri;
    (* the outcome is URI-free (see {!Valcache.outcome}): issues carry only
       filename and reason here, and the caller re-attaches the URI *)
    let local_issues = ref [] in
    let local_vrps = ref [] in
    let children = ref [] in
    let failed = ref Resources.empty in
    let boundaries = ref [ ca_cert.Cert.not_before; ca_cert.Cert.not_after ] in
    let window (c : Cert.t) = boundaries := c.Cert.not_before :: c.Cert.not_after :: !boundaries in
    let problem ?filename kind reason =
      local_issues := (filename, kind, reason) :: !local_issues
    in
    let decode_file filename =
      match List.assoc_opt filename snapshot with
      | None -> None
      | Some bytes -> (
        match Obj.decode ~filename bytes with
        | Ok o ->
          (match o with
          | Obj.Cert c -> window c
          | Obj.Roa r -> window r.Roa.ee
          | Obj.Crl c -> boundaries := c.Crl.this_update :: c.Crl.next_update :: !boundaries
          | Obj.Manifest m ->
            window m.Manifest.ee;
            boundaries := m.Manifest.this_update :: m.Manifest.next_update :: !boundaries);
          Some o
        | Error e ->
          problem ~filename Validation.Ik_malformed e;
          None)
    in
    (* the CA's own manifest, if present and well-formed *)
    let mft_name =
      Option.value ca_cert.Cert.manifest_uri ~default:(ca_cert.Cert.subject ^ ".mft")
    in
    (* transparency fields: what the point *served*, recorded even when the
       manifest fails validation — the log keeps evidence, not judgements *)
    let mft_hash =
      match List.assoc_opt mft_name snapshot with
      | Some bytes -> Rpki_crypto.Sha256.digest bytes
      | None -> ""
    in
    let mft_number = ref 0 in
    let manifest =
      match decode_file mft_name with
      | Some (Obj.Manifest m) -> (
        mft_number := m.Manifest.manifest_number;
        match Validation.validate_manifest ?verify ~now ~parent:ca_cert m with
        | Ok () -> Some m
        | Error f ->
          (* the shared Stale_crl failure means "window closed" here — on a
             manifest that is staleness, not an expired CRL *)
          let kind =
            match f with
            | Validation.Stale_crl _ -> Validation.Ik_stale_manifest
            | f -> Validation.failure_kind f
          in
          problem ~filename:mft_name kind (Validation.failure_to_string f);
          None)
      | Some _ ->
        problem ~filename:mft_name Validation.Ik_missing_manifest
          "manifest slot holds a different object";
        None
      | None ->
        problem ~filename:mft_name Validation.Ik_missing_manifest
          "manifest missing or undecodable";
        None
    in
    (* manifest completeness / integrity check *)
    (match manifest with
    | None -> ()
    | Some m ->
      List.iter
        (fun (e : Manifest.entry) ->
          match List.assoc_opt e.Manifest.filename snapshot with
          | None ->
            problem ~filename:e.Manifest.filename Validation.Ik_missing_object
              "listed on manifest but missing"
          | Some bytes ->
            if not (Rpki_crypto.Hmac.equal_digest (Rpki_crypto.Sha256.digest bytes) e.Manifest.hash)
            then
              problem ~filename:e.Manifest.filename Validation.Ik_hash_mismatch
                "hash mismatch with manifest")
        m.Manifest.entries;
      List.iter
        (fun (filename, _) ->
          if filename <> mft_name && Manifest.find m filename = None then
            problem ~filename Validation.Ik_unlisted_object "present but not listed on manifest")
        snapshot);
    (* the CA's CRL for the objects it issued *)
    let crl_name = ca_cert.Cert.subject ^ ".crl" in
    let crl =
      match decode_file crl_name with
      | Some (Obj.Crl c) -> (
        match Validation.validate_crl ?verify ~now ~parent:ca_cert c with
        | Ok () -> Some c
        | Error f ->
          problem ~filename:crl_name (Validation.failure_kind f)
            (Validation.failure_to_string f);
          None)
      | Some _ | None ->
        problem ~filename:crl_name Validation.Ik_missing_crl "CRL missing or undecodable";
        None
    in
    (* process every other object at the point *)
    List.iter
      (fun (filename, _) ->
        if filename = mft_name || filename = crl_name then ()
        else begin
          match decode_file filename with
          | None -> ()
          | Some (Obj.Cert c) -> (
            match Validation.validate_cert ?verify ~now ~parent:ca_cert ?crl c with
            | Ok () ->
              if c.Cert.is_ca then
                (* the bytes [decode_file] read: the child point's parent_fp *)
                let bytes = List.assoc filename snapshot in
                children := (c, Rpki_crypto.Sha256.digest bytes) :: !children
            | Error f ->
              (* a child CA that fails here is a CA we cannot descend into:
                 whatever it would have spoken for is dark, so its claimed
                 resources feed the unsafe-VRP analysis *)
              if c.Cert.is_ca then failed := Resources.union !failed c.Cert.resources;
              problem ~filename (Validation.failure_kind f) (Validation.failure_to_string f))
          | Some (Obj.Roa r) -> (
            match Validation.validate_roa ?verify ~now ~parent:ca_cert ?crl r with
            | Ok vs -> local_vrps := vs @ !local_vrps
            | Error f ->
              problem ~filename (Validation.failure_kind f) (Validation.failure_to_string f))
          | Some (Obj.Crl _) -> problem ~filename Validation.Ik_unlisted_object "unexpected extra CRL"
          | Some (Obj.Manifest _) ->
            problem ~filename Validation.Ik_unlisted_object "unexpected extra manifest"
        end)
      snapshot;
    { Valcache.o_parent_fp = parent_fp;
      o_snap_fp = snap_fp;
      o_at = now;
      o_boundaries = !boundaries;
      o_vrps = !local_vrps;
      o_vrp_hash = vrp_set_hash !local_vrps;
      o_issues = List.rev !local_issues;
      o_failed_resources = !failed;
      o_children = List.rev !children;
      o_mft_number = !mft_number;
      o_mft_hash = mft_hash }
  in
  List.iter
    (fun tal ->
      match fetch tal.ta_uri with
      | None -> ()
      | Some (snapshot, _) -> (
        match List.assoc_opt tal.ta_cert_filename snapshot with
        | None ->
          problem ~uri:tal.ta_uri ~filename:tal.ta_cert_filename Validation.Ik_missing_object
            "TA certificate missing"
        | Some bytes -> (
          match Cert.decode bytes with
          | Error e ->
            problem ~uri:tal.ta_uri ~filename:tal.ta_cert_filename Validation.Ik_malformed e
          | Ok cert -> (
            match Validation.validate_trust_anchor ?verify ~now ~expected_key:tal.ta_key cert with
            | Ok () -> process_ca (cert, Rpki_crypto.Sha256.digest bytes)
            | Error f ->
              problem ~uri:tal.ta_uri ~filename:tal.ta_cert_filename
                (Validation.failure_kind f) (Validation.failure_to_string f)))))
    t.tals;
  (* the sorted union of every point's VRPs: the last sync's, when each
     point gave back the very list it gave then *)
  let current =
    if List.equal ( == ) !walked t.walked then t.union
    else List.sort_uniq Vrp.compare (List.concat !walked)
  in
  t.walked <- !walked;
  t.union <- current;
  let effective =
    match t.grace with
    | None -> current
    | Some grace ->
      (* remember when each VRP was last seen; resurrect those seen within
         the grace window.  Every VRP of [current] is seen now, so memory
         holds only those that left it: one that leaves [seen] was last
         seen at [seen_at], and one that comes back is forgotten until it
         leaves again. *)
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
          issues :=
            { uri = "-"; filename = None; kind = Validation.Ik_grace_hold;
              reason = Printf.sprintf "grace: holding disappeared VRP %s" (Vrp.to_string v) }
            :: !issues)
        held;
      if held = [] then current else List.sort_uniq Vrp.compare (current @ held)
  in
  (* Routinator-style unsafe-VRP analysis: a VRP whose prefix overlaps the
     resources of a CA that failed this sync.  [Unsafe_accept] skips the
     scan entirely — the pre-existing behavior, byte for byte.  Warn and
     Reject both report the set; Reject additionally withdraws it from the
     effective VRPs (and thus from the index, the diff and RTR). *)
  let unsafe_vrps, effective =
    match policy.unsafe with
    | Unsafe_accept -> ([], effective)
    | Unsafe_warn | Unsafe_reject ->
      let failed = !failed_resources in
      let unsafe =
        if Resources.is_empty failed then []
        else
          List.filter
            (fun (v : Vrp.t) ->
              Resources.overlaps
                (Resources.make ~v4:(Rpki_ip.V4.Set.of_prefix v.Vrp.prefix) ())
                failed)
            effective
      in
      List.iter
        (fun v ->
          problem ~uri:"-" Validation.Ik_unsafe_vrp
            (Printf.sprintf "unsafe VRP %s: overlaps resources of a CA that failed to validate (%s)"
               (Vrp.to_string v) (unsafe_policy_to_string policy.unsafe)))
        unsafe;
      ( unsafe,
        if policy.unsafe = Unsafe_reject && unsafe <> [] then
          List.filter (fun v -> not (List.exists (fun u -> Vrp.compare u v = 0) unsafe)) effective
        else effective )
  in
  (* The diff against the previous sync is the currency everything
     downstream consumes: it patches the trie here and becomes the RTR
     serial delta in the simulation loop. *)
  let diff =
    if effective == t.effective_vrps then Vrp.empty_diff
    else Vrp.diff_of ~before:t.effective_vrps ~after:effective
  in
  t.index <- Origin_validation.apply_diff t.index diff;
  t.effective_vrps <- effective;
  let result =
    { vrps = effective;
      unsafe_vrps;
      failed_resources = !failed_resources;
      issues = List.rev !issues;
      fetches = List.rev !fetches;
      transfers = List.rev !transfers;
      sync_elapsed = !clock;
      budget_exhausted = !exhausted;
      cas_validated = List.rev !cas;
      index = t.index;
      diff;
      points_reused = !reused;
      points_revalidated = !revalidated;
      observations_appended = !appended;
      regressions = List.rev !regressions;
      tree_head = Rpki_transparency.Log.head t.tlog ~at:now }
  in
  t.last_result <- Some result;
  result

(* The worst data staleness a sync accepted: 0 when every point came from a
   fresh channel, the oldest cache age otherwise.  Monitors alarm on it and
   the RTR layer surfaces it next to its serial. *)
let max_data_age (result : sync_result) =
  List.fold_left (fun acc tr -> max acc tr.t_data_age) 0 result.transfers

(* --- persistence ---------------------------------------------------------

   What survives a restart is exactly the anti-rollback baseline: the
   transparency log (replayed observation by observation), the signed tree
   head it must still be consistent with, the last gossip-verified peer
   heads, the last-good effective VRP set (so the RTR serial line can
   continue), and the RTR serial itself.  Caches, memos and grace memory are
   deliberately not persisted — they are re-derivable and carry no evidence.

   Restore is fail-closed: a snapshot that is missing, corrupt, stale, or
   internally inconsistent (rehydrated log disagreeing with its own signed
   head) yields [Recovered_fresh] with a typed reason.  It never crashes and
   never silently trusts. *)

module Tlog = Rpki_transparency.Log
module Der = Rpki_asn.Der
module Codec = Rpki_persist.Codec

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
let base_records p =
  (meta_record p :: sth_record p.p_sth :: List.map obs_record (Tlog.observations p.p_log))
  @ peer_records p @ [ vrps_record p.p_vrps ]

(* The one reader of a chain, base first: every check that needs no
   vantage.  Observations accumulate across containers (each segment holds
   only its delta); meta, signed head and peer heads are rewritten whole
   on every save, so the newest container wins; the VRP set is the base's
   with each segment's diff applied ({!chain_vrps}).  Each segment must
   carry a checkpoint naming the previous container's head byte-for-byte
   and a consistency proof from it to the segment's own head, and the
   observations must replay into exactly the newest head's log id, size
   and Merkle root: the chain is one append-only history or it is refused.
   Raises [Restore_error] (or a decoder's exception); {!restore} adds the
   two checks bound to the vantage, its name and its key. *)
let read_chain (containers : Codec.snapshot list) =
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
              once "meta" c_meta (n, Der.to_int_exn a, Der.to_int_exn e, Der.to_int_exn s)
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
  let log = Tlog.create ~log_id:(log_id_for ~name ~epoch) in
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

(* [f] with the reader's failures as [Error]: a chain that does not hold
   together is an answer, never an exception. *)
let reading f =
  match f () with
  | x -> Ok x
  | exception (Restore_error why | Der.Decode_error why | Invalid_argument why) -> Error why

let other_marks t store =
  List.filter (fun (s, _) -> not (Rpki_persist.Store.same s store)) t.persist_marks

let set_mark t store mark = t.persist_marks <- (store, mark) :: other_marks t store

let save t ~now ?(rtr_serial = 0) ?(mode = `Auto) store =
  let p =
    { p_name = t.name; p_asn = t.asn; p_epoch = t.log_epoch; p_rtr_serial = rtr_serial;
      p_sth = signed_tree_head t ~now; p_log = t.tlog; p_peers = t.peer_heads;
      p_vrps = t.effective_vrps }
  in
  let size = Tlog.size t.tlog in
  let mark =
    match mode with
    | `Full -> None
    | `Auto -> (
      match List.find_opt (fun (s, _) -> Rpki_persist.Store.same s store) t.persist_marks with
      | Some (_, m)
        when Rpki_persist.Store.snapshot_bytes store > 0
             && m.pm_obs <= size
             && String.equal m.pm_head.Tlog.h_log_id (Tlog.log_id t.tlog) ->
        Some m
      | _ ->
        None
        (* no usable mark (first save, wiped store, the last save's file
           damaged or lost to a dropped rename, log reset): full save *))
  in
  let sealed =
    match mark with
    | None -> Rpki_persist.Store.save store ~now (base_records p)
    | Some m ->
      (* O(delta): only the observations appended since the mark, sealed
         under the checkpoint that ties them to the previous head, and the
         VRP set as a diff against the one the chain already restores to *)
      let fresh = List.map (fun (_, o) -> obs_record o) (Tlog.since t.tlog m.pm_obs) in
      let proof =
        if m.pm_obs = 0 then []
        else Tlog.consistency_proof t.tlog ~old_size:m.pm_obs ~size
      in
      let ckpt = record "ckpt" (encode_checkpoint ~prev:m.pm_head ~proof) in
      let diff =
        if m.pm_vrps == t.effective_vrps then Vrp.empty_diff
        else Vrp.diff_of ~before:m.pm_vrps ~after:t.effective_vrps
      in
      let vrps = if Vrp.diff_is_empty diff then [] else [ vrps_diff_record diff ] in
      Rpki_persist.Store.append store ~now
        ((meta_record p :: sth_record p.p_sth :: ckpt :: fresh) @ peer_records p @ vrps)
  in
  (* a file that did not read back intact ends a chain no restore accepts:
     drop the mark, so the next save writes a base over it *)
  if sealed.Rpki_persist.Store.intact then
    set_mark t store { pm_obs = size; pm_head = p.p_sth.Tlog.sh_head; pm_vrps = t.effective_vrps }
  else t.persist_marks <- other_marks t store;
  sealed.Rpki_persist.Store.generation

(* A chain the reader refuses is reported before [Store.compact] writes
   anything, so the store is left as it was. *)
let compact_store store ~now =
  let exception Unreadable of string in
  let fold containers =
    match reading (fun () -> read_chain containers) with
    | Ok p -> base_records p
    | Error why -> raise (Unreadable why)
  in
  match Rpki_persist.Store.compact store ~now ~fold with
  | result -> result
  | exception Unreadable why -> Error ("chain refused: " ^ why)

let restore t store =
  match Rpki_persist.Store.load_chain store with
  | Error Rpki_persist.Store.No_snapshot -> Recovered_fresh No_snapshot
  | Error (Rpki_persist.Store.Corrupt why) -> Recovered_fresh (Snapshot_corrupt why)
  | Error (Rpki_persist.Store.Stale { snap_generation; marker }) ->
    Recovered_fresh (Snapshot_stale { snap_generation; marker })
  | Ok containers -> (
    let read () =
      let p = read_chain containers in
      if not (String.equal p.p_name t.name) then
        restore_error "snapshot belongs to vantage %S, not %S" p.p_name t.name;
      if not (Tlog.verify_head ~key:(transparency_key t) p.p_sth) then
        restore_error "persisted tree head signature does not verify";
      p
    in
    match reading read with
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
      set_mark t store
        { pm_obs = Tlog.size p.p_log; pm_head = p.p_sth.Tlog.sh_head; pm_vrps = p.p_vrps };
      Recovered
        { rc_generation = newest.Codec.s_generation;
          rc_saved_at = newest.Codec.s_saved_at;
          rc_rtr_serial = p.p_rtr_serial })
