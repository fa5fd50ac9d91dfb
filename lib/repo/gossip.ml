(* Tree-head gossip between relying-party vantages: split-view detection.
   See the .mli for the protocol; this file is the mechanics.

   The "message" a peer would serve is assembled here from the peer's own
   log (we play both endpoints of the pull), but everything the receiver
   does with it goes through the same verification a remote would run:
   signature, consistency from the last head it saw, inclusion of every
   delta record.  Only verified records are cross-checked, so a Fork alarm
   is always backed by checkable evidence.

   Three layers keep a round cheap at scale:
   - the Overlay selects O(n·k) edges instead of the full O(n²) mesh;
   - each relying party signs its head once per tree, and a per-round
     cache verifies each distinct (peer, head, signature) once, builds
     each Merkle proof once per (tree root, range) and checks each proof
     once per (leaf, index, size, root, proof) — honest vantages hold
     identical logs, so one proof and one check serve every receiver of
     the same delta;
   - the round plans its pulls first, then signs and checks every fresh
     head an answered pull will serve on every core ([sign_fresh_heads]),
     before the pulls run in order on one Domain. *)

module Rng = Rpki_util.Rng
module Log = Rpki_transparency.Log
module Merkle = Rpki_transparency.Merkle

module Overlay = struct
  type spec =
    | Full_mesh
    | K_regular of int
    | Star of int
    | Random_peers of int

  let default_seed = 0x6f5e1d

  let validate = function
    | Full_mesh -> ()
    | K_regular k | Star k | Random_peers k ->
      if k < 1 then invalid_arg "Gossip.Overlay: degree/hub count must be >= 1"

  let to_string = function
    | Full_mesh -> "full"
    | K_regular k -> Printf.sprintf "k:%d" k
    | Star h -> Printf.sprintf "star:%d" h
    | Random_peers k -> Printf.sprintf "random:%d" k

  let of_string s =
    let num k f =
      match int_of_string_opt k with Some v when v >= 1 -> Some (f v) | _ -> None
    in
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ ("full" | "full-mesh" | "mesh") ] -> Some Full_mesh
    | [ ("k" | "k-regular" | "kregular"); k ] -> num k (fun v -> K_regular v)
    | [ "star" ] -> Some (Star 1)
    | [ "star"; h ] -> num h (fun v -> Star v)
    | [ ("random" | "random-peers"); k ] -> num k (fun v -> Random_peers v)
    | _ -> None

  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: tl -> x :: take (k - 1) tl

  let pulls spec ~seed ~round names =
    validate spec;
    let arr = Array.of_list names in
    let n = Array.length arr in
    if n <= 1 then []
    else
      match spec with
      | Full_mesh ->
        (* receiver-outer in registration order: the legacy pairwise mesh *)
        List.concat_map
          (fun r ->
            List.filter_map (fun p -> if String.equal p r then None else Some (r, p)) names)
          names
      | K_regular k ->
        (* seeded Hamiltonian cycle + chords: put the vantages on a shuffled
           ring and connect ring offsets 1..⌈k/2⌉ — a circulant graph,
           connected by the cycle, undirected degree ≈ k *)
        let perm = Array.of_list (Rng.shuffle (Rng.create (seed lxor 0x6b7265)) names) in
        let m = (k + 1) / 2 in
        let adj = Array.make n [] in
        let seen = Hashtbl.create (n * m) in
        for i = 0 to n - 1 do
          for o = 1 to m do
            let j = (i + o) mod n in
            let e = (min i j, max i j) in
            if j <> i && not (Hashtbl.mem seen e) then begin
              Hashtbl.replace seen e ();
              adj.(i) <- j :: adj.(i);
              adj.(j) <- i :: adj.(j)
            end
          done
        done;
        List.concat
          (List.init n (fun i ->
               List.map
                 (fun j -> (perm.(i), perm.(j)))
                 (List.sort_uniq compare adj.(i))))
      | Star h ->
        (* hubs = the last h registered vantages (monitors register after
           the primary); spokes pull hubs only, hubs pull everyone *)
        let h = min h (n - 1) in
        let is_hub i = i >= n - h in
        List.concat
          (List.init n (fun i ->
               let peers =
                 if is_hub i then List.init n (fun j -> j)
                 else List.init h (fun o -> n - h + o)
               in
               List.filter_map
                 (fun j -> if j = i then None else Some (arr.(i), arr.(j)))
                 peers))
      | Random_peers k ->
        (* a fresh seeded sample per receiver per round *)
        let rng = Rng.create (seed lxor ((round + 1) * 0x9e3779b9)) in
        List.concat
          (List.init n (fun i ->
               let others = List.filter (fun p -> not (String.equal p arr.(i))) names in
               List.map (fun p -> (arr.(i), p)) (take k (Rng.shuffle rng others))))

  let connected pulls ~names =
    match names with
    | [] | [ _ ] -> true
    | first :: _ ->
      let adj = Hashtbl.create 64 in
      let neighbors x = Option.value (Hashtbl.find_opt adj x) ~default:[] in
      List.iter
        (fun (a, b) ->
          Hashtbl.replace adj a (b :: neighbors a);
          Hashtbl.replace adj b (a :: neighbors b))
        pulls;
      let visited = Hashtbl.create 64 in
      let rec dfs x =
        if not (Hashtbl.mem visited x) then begin
          Hashtbl.replace visited x ();
          List.iter dfs (neighbors x)
        end
      in
      dfs first;
      List.for_all (Hashtbl.mem visited) names
end

type vantage = {
  v_name : string;
  mutable v_rp : Relying_party.t; (* mutable: a restarted vantage re-enters the
                                     mesh as a new RP instance under its name *)
  v_endpoint : Pub_point.t;
  v_transport : Transport.t;
}

type attested = {
  att_vantage : string;
  att_obs : Log.observation;
  att_index : int;
  att_head : Log.signed_head;
  att_proof : Merkle.proof;
}

type alarm =
  | Fork of {
      fork_uri : string;
      fork_serial : int;
      left : attested;
      right : attested;
    }
  | Inconsistent_heads of {
      ih_peer : string;
      ih_seen_by : string;
      ih_old : Log.head;
      ih_new : Log.head;
    }
  | Bad_head_signature of { bs_peer : string; bs_seen_by : string }
  | Bad_inclusion of { bi_peer : string; bi_seen_by : string; bi_index : int }
  | Rollback of {
      rb_uri : string;
      rb_earlier : attested; (* recorded earlier in the same log, higher serial *)
      rb_later : attested;   (* recorded later, lower serial: a served rollback *)
    }
  | Log_reset of {
      lr_peer : string;
      lr_seen_by : string;
      lr_old : Log.head;  (* the last head verified for the previous log *)
      lr_new : Log.head;  (* the head of the new incarnation *)
    }

let is_fork = function Fork _ -> true | _ -> false
let is_rollback = function Rollback _ -> true | _ -> false

let describe_alarm = function
  | Fork f ->
    Printf.sprintf
      "FORK at %s #%d: %s saw %s but %s saw %s — the authority equivocated"
      f.fork_uri f.fork_serial f.left.att_vantage
      (Log.observation_to_string f.left.att_obs)
      f.right.att_vantage
      (Log.observation_to_string f.right.att_obs)
  | Inconsistent_heads i ->
    Printf.sprintf "%s: peer %s's head %s does not extend its earlier head %s"
      i.ih_seen_by i.ih_peer (Log.head_to_string i.ih_new) (Log.head_to_string i.ih_old)
  | Bad_head_signature b ->
    Printf.sprintf "%s: peer %s served a tree head with a bad signature" b.bs_seen_by b.bs_peer
  | Bad_inclusion b ->
    Printf.sprintf "%s: peer %s's record %d failed its inclusion proof" b.bi_seen_by b.bi_peer
      b.bi_index
  | Rollback r ->
    Printf.sprintf
      "ROLLBACK at %s: %s's log recorded #%d (index %d) and later #%d (index %d) — it was served a rewritten past"
      r.rb_uri r.rb_later.att_vantage
      r.rb_earlier.att_obs.Log.ob_serial r.rb_earlier.att_index
      r.rb_later.att_obs.Log.ob_serial r.rb_later.att_index
  | Log_reset l ->
    Printf.sprintf
      "%s: peer %s's log restarted (%s -> %s) — its history baseline is gone"
      l.lr_seen_by l.lr_peer (Log.head_to_string l.lr_old) (Log.head_to_string l.lr_new)

(* Re-verify fork or rollback evidence from scratch; a [true] needs no trust
   in the vantage that raised the alarm. *)
let verify_fork ~key_of alarm =
  let side (a : attested) =
    match key_of a.att_vantage with
    | None -> false
    | Some key ->
      Log.verify_head ~key a.att_head
      && Log.verify_observation_inclusion a.att_obs ~index:a.att_index
           ~head:a.att_head.Log.sh_head a.att_proof
  in
  match alarm with
  | Inconsistent_heads _ | Bad_head_signature _ | Bad_inclusion _ | Log_reset _ -> false
  | Fork f ->
    let lo = f.left.att_obs and ro = f.right.att_obs in
    side f.left && side f.right
    && String.equal lo.Log.ob_uri f.fork_uri
    && String.equal ro.Log.ob_uri f.fork_uri
    && lo.Log.ob_serial = f.fork_serial
    && ro.Log.ob_serial = f.fork_serial
    && not (Log.observation_equal lo ro)
  | Rollback r ->
    (* both records must sit in the *same* signed log (same vantage, the
       identical head), in append order, with the manifest number going
       backwards — one log attesting that the authority served a rewritten,
       older past after a newer one *)
    let e = r.rb_earlier and l = r.rb_later in
    side e && side l
    && String.equal e.att_vantage l.att_vantage
    && String.equal (Log.encode_head e.att_head.Log.sh_head)
         (Log.encode_head l.att_head.Log.sh_head)
    && String.equal e.att_obs.Log.ob_uri r.rb_uri
    && String.equal l.att_obs.Log.ob_uri r.rb_uri
    && e.att_index < l.att_index
    && e.att_obs.Log.ob_serial > l.att_obs.Log.ob_serial

type exchange = {
  ex_from : string;
  ex_to : string;
  ex_outcome : [ `Ok of int | `Stalled | `Unroutable ];
  ex_proof_bytes : int;
}

type round_report = {
  r_at : int;
  r_exchanges : exchange list;
  r_alarms : alarm list;
  r_proof_bytes : int;
  r_pulls : int;
  r_skipped : int;
  r_verifies : int;
  r_verifies_saved : int;
  r_proofs_built : int;
  r_proofs_reused : int;
}

(* A Byzantine serving override: what vantage [name] answers with, per
   receiver.  While installed, the vantage also stops pulling. *)
type server = {
  srv_serve : receiver:string -> Relying_party.t;
  srv_refresh : (now:int -> unit) option;
}

type t = {
  vantages : vantage list;
  overlay : Overlay.spec;
  overlay_seed : int;
  servers : (string, server) Hashtbl.t;
  last_seen : (string * string, Log.head) Hashtbl.t;
      (* (receiver, peer) -> the peer head the receiver last verified *)
  best_serial : (string * string * string, int * Log.observation) Hashtbl.t;
      (* (receiver, peer, uri) -> the highest-serial verified record the
         receiver has seen in the peer's log (with its leaf index) — the
         baseline a served rollback regresses against *)
  mutable alarm_log : alarm list; (* newest first *)
  reported : (string, unit) Hashtbl.t; (* dedup keys for raised alarms *)
}

let create ?(overlay = Overlay.Full_mesh)
    ?(overlay_seed = Overlay.default_seed) vantages =
  (match vantages with
  | [] -> invalid_arg "Gossip.create: no vantages"
  | _ -> ());
  Overlay.validate overlay;
  let names = List.map (fun v -> v.v_name) vantages in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Gossip.create: duplicate vantage names";
  (* every pulled vantage signs a tree head in round 1: make the signing
     keys now, on every core.  Each depends only on its RP's name, and RPs
     are deduplicated by identity so no two Domains fill the same one. *)
  let rps =
    List.fold_left
      (fun acc v -> if List.memq v.v_rp acc then acc else v.v_rp :: acc)
      [] vantages
  in
  ignore (Rpki_util.Par.map Relying_party.transparency_key (Array.of_list rps));
  { vantages; overlay; overlay_seed; servers = Hashtbl.create 4;
    last_seen = Hashtbl.create 16; best_serial = Hashtbl.create 32;
    alarm_log = []; reported = Hashtbl.create 16 }

let vantages t = t.vantages
let overlay t = t.overlay

let key_of t name =
  List.find_map
    (fun v ->
      if String.equal v.v_name name then Some (Relying_party.transparency_key v.v_rp) else None)
    t.vantages

let round_pulls t ~round =
  Overlay.pulls t.overlay ~seed:t.overlay_seed ~round (List.map (fun v -> v.v_name) t.vantages)

let alarms t = List.rev t.alarm_log
let forks t = List.filter is_fork (alarms t)
let rollbacks t = List.filter is_rollback (alarms t)

let set_server t ~name ?refresh serve =
  if not (List.exists (fun v -> String.equal v.v_name name) t.vantages) then
    invalid_arg ("Gossip.set_server: unknown vantage " ^ name);
  Hashtbl.replace t.servers name { srv_serve = serve; srv_refresh = refresh }

let clear_server t ~name = Hashtbl.remove t.servers name

let server_names t =
  List.filter_map
    (fun v -> if Hashtbl.mem t.servers v.v_name then Some v.v_name else None)
    t.vantages

(* A vantage's gossip-receiver state (what it verified about its peers) is
   process state: it dies with the process.  [forget_receiver] models that;
   [reseed_receiver] rehydrates the consistency baselines from the heads the
   vantage's relying party persisted ({!Relying_party.peer_heads}). *)
let forget_receiver t ~name =
  Hashtbl.iter
    (fun ((r, _) as k) _ -> if String.equal r name then Hashtbl.remove t.last_seen k)
    (Hashtbl.copy t.last_seen);
  Hashtbl.iter
    (fun ((r, _, _) as k) _ -> if String.equal r name then Hashtbl.remove t.best_serial k)
    (Hashtbl.copy t.best_serial)

let reseed_receiver t ~name =
  match List.find_opt (fun v -> String.equal v.v_name name) t.vantages with
  | None -> ()
  | Some v ->
    List.iter
      (fun (peer, head) -> Hashtbl.replace t.last_seen (name, peer) head)
      (Relying_party.peer_heads v.v_rp)

(* Raise an alarm unless its dedup key was already reported. *)
let raise_alarm t ~key alarm acc =
  if Hashtbl.mem t.reported key then acc
  else begin
    Hashtbl.replace t.reported key ();
    t.alarm_log <- alarm :: t.alarm_log;
    alarm :: acc
  end

let fork_key uri serial a b =
  let x, y = if a < b then (a, b) else (b, a) in
  Printf.sprintf "fork:%s:%d:%s:%s" uri serial x y

(* Per-round work sharing.  Each RP *instance* keeps its own signed head
   ([Relying_party.signed_tree_head] re-signs only when its tree changes),
   so an equivocator's instances under one name each sign their own, and
   every pull of one instance in a round serves one head.  The verify memo
   is keyed on the full (peer, head bytes, signature) triple, so two
   different heads served under one name each get their own verification.
   Proofs are keyed on the committing root + range: a Merkle root pins the
   tree content, so identical logs (every honest vantage) share proofs.
   Proof checks are keyed on every input of the check ({!Merkle.Verdicts}),
   so they are shared the same way; what stays per receiver is everything
   else a pull does (log id and size order, baselines, cross-checks,
   alarms).  [rc_checked] holds the verdicts [sign_fresh_heads] computed,
   keyed by signer name, head bytes and signature; the verify memo's first
   miss on such a head takes its verdict in place of checking again. *)
type round_ctx = {
  rc_checked : (string, bool) Hashtbl.t;
  rc_heads : (string, bool) Hashtbl.t;
  rc_proofs : (string, Merkle.proof) Hashtbl.t;
  rc_verdicts : Merkle.Verdicts.t;
  mutable rc_verifies : int;
  mutable rc_verifies_saved : int;
  mutable rc_proofs_built : int;
  mutable rc_proofs_reused : int;
}

let new_round_ctx () =
  { rc_checked = Hashtbl.create 16; rc_heads = Hashtbl.create 64;
    rc_proofs = Hashtbl.create 256;
    rc_verdicts = Merkle.Verdicts.create (); rc_verifies = 0;
    rc_verifies_saved = 0; rc_proofs_built = 0; rc_proofs_reused = 0 }

(* What a head's check depends on: the signer (its key comes from its
   name), the head and the signature. *)
let check_key rp sth =
  String.concat "\x00"
    [ Relying_party.name rp; Log.encode_head sth.Log.sh_head; sth.Log.sh_sig ]

let verify_head_once ctx ~peer ~served sth =
  let memo =
    String.concat "\x00" [ peer; Log.encode_head sth.Log.sh_head; sth.Log.sh_sig ]
  in
  match Hashtbl.find_opt ctx.rc_heads memo with
  | Some ok ->
    ctx.rc_verifies_saved <- ctx.rc_verifies_saved + 1;
    ok
  | None ->
    let checked = check_key served sth in
    let ok =
      match Hashtbl.find_opt ctx.rc_checked checked with
      | Some ok ->
        Hashtbl.remove ctx.rc_checked checked;
        ok
      | None -> Log.verify_head ~key:(Relying_party.transparency_key served) sth
    in
    ctx.rc_verifies <- ctx.rc_verifies + 1;
    Hashtbl.replace ctx.rc_heads memo ok;
    ok

let proof_once ctx ~kind ~root ~a ~b build =
  let key = Printf.sprintf "%s\x00%s\x00%d\x00%d" kind root a b in
  match Hashtbl.find_opt ctx.rc_proofs key with
  | Some p ->
    ctx.rc_proofs_reused <- ctx.rc_proofs_reused + 1;
    p
  | None ->
    let p = build () in
    ctx.rc_proofs_built <- ctx.rc_proofs_built + 1;
    Hashtbl.replace ctx.rc_proofs key p;
    p

let consistency_once ctx log ~root ~old_size ~size =
  proof_once ctx ~kind:"c" ~root ~a:old_size ~b:size (fun () ->
      Log.consistency_proof log ~old_size ~size)

let inclusion_once ctx log ~root ~index ~size =
  proof_once ctx ~kind:"i" ~root ~a:index ~b:size (fun () ->
      Log.inclusion_proof log ~index ~size)

(* A pull's time budget, like a fetch-policy point timeout. *)
let pull_timeout = 32

(* The round's plan, one entry per overlay pull in order: [None] for a
   skipped pull, else the receiver, the peer, the instance the peer serves
   this receiver ([peer.v_rp] unless a Byzantine override chose a different
   log) and what the transport answered for the peer's endpoint. *)
type planned =
  (vantage * vantage * Relying_party.t * [ `Ok of int | `Stalled of int | `Unroutable of int ])
  option

(* Sign and check, on every core, each head an answered pull will serve
   that has no signature for its current tree (DESIGN.md §15), one task
   per instance.  A task touches only its own relying party: its kept
   head, its key and its log's tree.  The pulls then find the signed heads
   kept on their instances and the verdicts in [rc_checked].  Instances
   that sign byte-identical heads (an equivocator's shadow before its log
   diverges) are each signed, and checked once, as the verify memo would
   check them. *)
let sign_fresh_heads ctx ~now (plan : planned list) =
  let served =
    List.fold_left
      (fun acc -> function
        | Some (_, _, rp, `Ok _) when not (List.memq rp acc) -> rp :: acc
        | _ -> acc)
      [] plan
  in
  let fresh =
    List.filter (fun rp -> not (Relying_party.head_signed rp ~now)) (List.rev served)
  in
  let twins = Hashtbl.create 16 in
  let tasks =
    Array.of_list
      (List.map
         (fun rp ->
           let head =
             Log.encode_head (Log.head (Relying_party.transparency_log rp) ~at:now)
           in
           let first = not (Hashtbl.mem twins (Relying_party.name rp, head)) in
           Hashtbl.replace twins (Relying_party.name rp, head) ();
           (rp, first))
         fresh)
  in
  let signed =
    Rpki_util.Par.map
      (fun (rp, check) ->
        let sth = Relying_party.signed_tree_head rp ~now in
        ( sth,
          if check then Some (Log.verify_head ~key:(Relying_party.transparency_key rp) sth)
          else None ))
      tasks
  in
  Array.iteri
    (fun i (rp, _) ->
      let sth, verdict = signed.(i) in
      Option.iter (Hashtbl.replace ctx.rc_checked (check_key rp sth)) verdict)
    tasks

(* One pull: [receiver] fetches [served]'s head + delta over [peer]'s
   endpoint and verifies it, given the planned [probe] of that endpoint.
   Returns (exchange, new alarms). *)
let pull t ctx ~now ~(receiver : vantage) ~(peer : vantage) ~served probe =
  match probe with
  | `Stalled _ ->
    ({ ex_from = peer.v_name; ex_to = receiver.v_name; ex_outcome = `Stalled;
       ex_proof_bytes = 0 }, [])
  | `Unroutable _ ->
    ({ ex_from = peer.v_name; ex_to = receiver.v_name; ex_outcome = `Unroutable;
       ex_proof_bytes = 0 }, [])
  | `Ok _ ->
    let peer_log = Relying_party.transparency_log served in
    let own_log = Relying_party.transparency_log receiver.v_rp in
    let sth = Relying_party.signed_tree_head served ~now in
    let new_head = sth.Log.sh_head in
    let seen_key = (receiver.v_name, peer.v_name) in
    let prior_head = Hashtbl.find_opt t.last_seen seen_key in
    (* A changed log id means the peer's log did not continue — it restarted
       without its baseline.  The receiver must not judge the new log against
       the old one's heads (that would misread every fresh restart as
       history rewriting); it notes the reset and starts over. *)
    let log_reset =
      match prior_head with
      | Some oh when not (String.equal oh.Log.h_log_id new_head.Log.h_log_id) -> Some oh
      | _ -> None
    in
    let old_head = if log_reset = None then prior_head else None in
    let old_size = match old_head with Some h -> h.Log.h_size | None -> 0 in
    (* the peer's message: consistency from the last head we verified,
       plus every record appended since, each with an inclusion proof *)
    let consistency =
      if old_size = 0 || old_size > new_head.Log.h_size then []
      else
        consistency_once ctx peer_log ~root:new_head.Log.h_root ~old_size
          ~size:new_head.Log.h_size
    in
    let delta =
      if new_head.Log.h_size <= old_size then []
      else
        List.map
          (fun (i, ob) ->
            ( i, ob,
              inclusion_once ctx peer_log ~root:new_head.Log.h_root ~index:i
                ~size:new_head.Log.h_size ))
          (Log.since peer_log old_size)
    in
    let proof_bytes =
      Merkle.proof_bytes consistency
      + List.fold_left (fun acc (_, _, p) -> acc + Merkle.proof_bytes p) 0 delta
      + String.length sth.Log.sh_sig
    in
    let alarms = ref [] in
    let note ~key a = alarms := raise_alarm t ~key a !alarms in
    (* 1. the head must be the peer's statement *)
    if
      not
        (verify_head_once ctx ~peer:peer.v_name ~served sth)
    then
      note ~key:(Printf.sprintf "badsig:%s:%s:%d" receiver.v_name peer.v_name now)
        (Bad_head_signature { bs_peer = peer.v_name; bs_seen_by = receiver.v_name })
    else begin
      (match log_reset with
      | Some oh ->
        (* the old log's verified state no longer applies to the new one *)
        Hashtbl.remove t.last_seen seen_key;
        Hashtbl.iter
          (fun ((r, p, _) as k) _ ->
            if String.equal r receiver.v_name && String.equal p peer.v_name then
              Hashtbl.remove t.best_serial k)
          (Hashtbl.copy t.best_serial);
        note
          ~key:
            (Printf.sprintf "logreset:%s:%s:%s" receiver.v_name peer.v_name
               new_head.Log.h_log_id)
          (Log_reset
             { lr_peer = peer.v_name; lr_seen_by = receiver.v_name; lr_old = oh;
               lr_new = new_head })
      | None -> ());
      (* 2. the new head must extend the one we last verified *)
      let consistent =
        match old_head with
        | None -> true
        | Some oh ->
          Log.verify_head_consistency ~verdicts:ctx.rc_verdicts ~old_head:oh ~new_head
            consistency
      in
      if not consistent then
        note
          ~key:(Printf.sprintf "inconsistent:%s:%s:%d" receiver.v_name peer.v_name old_size)
          (Inconsistent_heads
             { ih_peer = peer.v_name; ih_seen_by = receiver.v_name;
               ih_old = Option.get old_head; ih_new = new_head })
      else begin
        Hashtbl.replace t.last_seen seen_key new_head;
        Relying_party.note_peer_head receiver.v_rp ~peer:peer.v_name new_head;
        (* 3. each delta record must be in the tree the head commits to *)
        List.iter
          (fun (i, ob, proof) ->
            if
              not
                (Log.verify_observation_inclusion ~verdicts:ctx.rc_verdicts ob ~index:i
                   ~head:new_head proof)
            then
              note ~key:(Printf.sprintf "badincl:%s:%s:%d" receiver.v_name peer.v_name i)
                (Bad_inclusion { bi_peer = peer.v_name; bi_seen_by = receiver.v_name; bi_index = i })
            else begin
              (* 4. cross-check against our own history: same publication
                 point, same manifest number, different content = fork *)
              (match Log.find own_log ~uri:ob.Log.ob_uri ~serial:ob.Log.ob_serial with
              | Some (own_i, own_ob) when not (Log.observation_equal own_ob ob) ->
                let own_sth = Relying_party.signed_tree_head receiver.v_rp ~now in
                let own_head = own_sth.Log.sh_head in
                let left =
                  { att_vantage = receiver.v_name; att_obs = own_ob; att_index = own_i;
                    att_head = own_sth;
                    att_proof =
                      inclusion_once ctx own_log ~root:own_head.Log.h_root ~index:own_i
                        ~size:own_head.Log.h_size }
                in
                let right =
                  { att_vantage = peer.v_name; att_obs = ob; att_index = i;
                    att_head = sth; att_proof = proof }
                in
                note
                  ~key:(fork_key ob.Log.ob_uri ob.Log.ob_serial receiver.v_name peer.v_name)
                  (Fork
                     { fork_uri = ob.Log.ob_uri; fork_serial = ob.Log.ob_serial; left; right })
              | _ -> ());
              (* 5. serial regression *within the peer's own log*: the log
                 recorded a higher manifest number for this point earlier
                 and now appends a lower one — somebody served the peer a
                 rewritten past, and the peer's own log is the evidence.
                 (A peer merely *behind* — slow, stale — never trips this:
                 its serials arrive in nondecreasing order.) *)
              let bs_key = (receiver.v_name, peer.v_name, ob.Log.ob_uri) in
              (match Hashtbl.find_opt t.best_serial bs_key with
              | Some (best_i, best_ob) when ob.Log.ob_serial < best_ob.Log.ob_serial ->
                let attested_at index obs =
                  { att_vantage = peer.v_name; att_obs = obs; att_index = index;
                    att_head = sth;
                    att_proof =
                      inclusion_once ctx peer_log ~root:new_head.Log.h_root ~index
                        ~size:new_head.Log.h_size }
                in
                note
                  ~key:
                    (Printf.sprintf "rollback:%s:%s:%d:%d" peer.v_name ob.Log.ob_uri
                       best_i i)
                  (Rollback
                     { rb_uri = ob.Log.ob_uri;
                       rb_earlier = attested_at best_i best_ob;
                       rb_later = { (attested_at i ob) with att_proof = proof } })
              | Some (_, best_ob) when ob.Log.ob_serial > best_ob.Log.ob_serial ->
                Hashtbl.replace t.best_serial bs_key (i, ob)
              | Some _ -> ()
              | None -> Hashtbl.replace t.best_serial bs_key (i, ob))
            end)
          delta
      end
    end;
    ({ ex_from = peer.v_name; ex_to = receiver.v_name; ex_outcome = `Ok (List.length delta);
       ex_proof_bytes = proof_bytes }, List.rev !alarms)

let round ?(alive = fun _ -> true) t ~now =
  (* Byzantine shadow state syncs first: an equivocator refreshes the view
     it is about to serve this round *)
  List.iter
    (fun v ->
      if alive v.v_name then
        match Hashtbl.find_opt t.servers v.v_name with
        | Some { srv_refresh = Some f; _ } -> f ~now
        | _ -> ())
    t.vantages;
  let by_name = Hashtbl.create (List.length t.vantages) in
  List.iter (fun v -> Hashtbl.replace by_name v.v_name v) t.vantages;
  (* the plan: each pull's skip, served instance and probe, in pull order,
     each asked once *)
  let plan =
    List.map
      (fun (rname, pname) ->
        if (not (alive rname)) || (not (alive pname)) || Hashtbl.mem t.servers rname then
          (* dead endpoint, or a Byzantine receiver: a traitor pulls nothing —
             it would not report what it finds *)
          None
        else begin
          let receiver = Hashtbl.find by_name rname and peer = Hashtbl.find by_name pname in
          let served =
            match Hashtbl.find_opt t.servers pname with
            | Some srv -> srv.srv_serve ~receiver:rname
            | None -> peer.v_rp
          in
          Some
            ( receiver, peer, served,
              Transport.probe receiver.v_transport ~point:peer.v_endpoint
                ~timeout:pull_timeout )
        end)
      (round_pulls t ~round:now)
  in
  let ctx = new_round_ctx () in
  sign_fresh_heads ctx ~now plan;
  let exchanges = ref [] and alarms = ref [] in
  let pulls = ref 0 and skipped = ref 0 in
  List.iter
    (function
      | None -> incr skipped
      | Some (receiver, peer, served, probe) ->
        incr pulls;
        let ex, al = pull t ctx ~now ~receiver ~peer ~served probe in
        exchanges := ex :: !exchanges;
        alarms := !alarms @ al)
    plan;
  let exchanges = List.rev !exchanges in
  { r_at = now;
    r_exchanges = exchanges;
    r_alarms = !alarms;
    r_proof_bytes = List.fold_left (fun acc e -> acc + e.ex_proof_bytes) 0 exchanges;
    r_pulls = !pulls;
    r_skipped = !skipped;
    r_verifies = ctx.rc_verifies;
    r_verifies_saved = ctx.rc_verifies_saved;
    r_proofs_built = ctx.rc_proofs_built;
    r_proofs_reused = ctx.rc_proofs_reused }

let pp_report fmt r =
  let ok, failed =
    List.partition (fun e -> match e.ex_outcome with `Ok _ -> true | _ -> false) r.r_exchanges
  in
  Format.fprintf fmt
    "gossip@t%d: %d/%d pulls ok (%d skipped), %d proof bytes, %d verifies (+%d memoized), %d alarm(s)%s"
    r.r_at (List.length ok) r.r_pulls r.r_skipped r.r_proof_bytes r.r_verifies
    r.r_verifies_saved
    (List.length r.r_alarms)
    (if failed = [] then ""
     else
       Printf.sprintf " [failed: %s]"
         (String.concat ", "
            (List.map (fun e -> Printf.sprintf "%s<-%s" e.ex_to e.ex_from) failed)))
