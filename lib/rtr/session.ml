(* RTR cache server and router client state machines (RFC 6810 section 4).

   The cache stores the current VRP set plus a window of serial-numbered
   *deltas* (the same `Vrp.diff` the relying party emits per sync), so a
   Serial Query is answered by composing stored deltas instead of diffing
   two full snapshots.  Wire format is the byte-exact [Pdu] encoding, so a
   round trip through [encode]/[decode] happens on every exchange even
   though transport is an in-memory string. *)

open Rpki_core
open Rpki_ip

(* --- cache (server) side --- *)

type cache = {
  session_id : int;
  mutable serial : int;
  mutable feed : Vrp.t list; (* the relying party's view, holds ignored *)
  mutable current : Vrp.t list; (* what routers see: [feed] with holds applied *)
  mutable index : Origin_validation.index option;
      (* [current]'s origin-validation index, built on first demand and
         patched with each delta after that *)
  mutable holds : (V4.Prefix.t * Vrp.t list) list; (* pinned prefix -> last-good VRPs *)
  mutable deltas : Vrp.diff list;
      (* newest first: the i-th (from 0) leads to [serial - i] from the
         serial before it, mod 2^32 *)
  mutable data_age : int; (* staleness of the RP data behind [current] *)
  history_limit : int;
}

let create_cache ?(session_id = 0x5c1) ?(history_limit = 16) () =
  { session_id; serial = 0; feed = []; current = []; index = None; holds = []; deltas = [];
    data_age = 0; history_limit }

let cache_session_id cache = cache.session_id
let cache_serial cache = cache.serial
let cache_vrps cache = cache.current

let cache_index cache =
  match cache.index with
  | Some idx -> idx
  | None ->
    let idx = Origin_validation.build cache.current in
    cache.index <- Some idx;
    idx

let cache_holds cache = cache.holds

(* The serial says how current the *protocol* state is; the data age says
   how current the *data* is.  A cache fed by a relying party syncing from
   stale copies keeps bumping serials over old data — this is how routers
   (and monitors) can tell the difference. *)
let set_data_age cache age = cache.data_age <- max 0 age
let cache_data_age cache = cache.data_age

(* The evidence-triggered freeze: under a hold, VRPs covered by the held
   prefix are replaced by the pinned last-good set, whatever the relying
   party currently believes. *)
let apply_holds cache vrps =
  match cache.holds with
  | [] -> vrps
  | holds ->
    let covered (v : Vrp.t) = List.exists (fun (p, _) -> V4.Prefix.covers p v.Vrp.prefix) holds in
    Vrp.normalize
      (List.filter (fun v -> not (covered v)) vrps @ List.concat_map snd holds)

(* RTR serials are RFC 1982 serial numbers of 32 bits (RFC 8210): they
   wrap from 2^32 - 1 to 0, and the distance from a router's serial to the
   cache's is their difference mod 2^32. *)
let serial_mask = 0xFFFF_FFFF

(* Re-derive the router-visible set from the feed; bump the serial and
   record the delta only when something actually changed. *)
let republish cache =
  let vrps = apply_holds cache cache.feed in
  let d = Vrp.diff_of ~before:cache.current ~after:vrps in
  if not (Vrp.diff_is_empty d) then begin
    cache.serial <- (cache.serial + 1) land serial_mask;
    cache.current <- vrps;
    cache.index <- Option.map (fun idx -> Origin_validation.apply_diff idx d) cache.index;
    cache.deltas <- d :: cache.deltas;
    if List.length cache.deltas > cache.history_limit then
      cache.deltas <- List.filteri (fun i _ -> i < cache.history_limit) cache.deltas
  end

let install cache vrps =
  cache.feed <- vrps;
  republish cache

let publish cache vrps = install cache (Vrp.normalize vrps)

exception Base_mismatch of { expected : int64; actual : int64 }

let feed_fingerprint cache = Vrp.fingerprint cache.feed

(* Install the relying party's sync diff directly as the next serial delta.
   The diff must be relative to the cache's *feed* — which holds when the
   cache is fed every sync of one relying party, diff-empty syncs included
   (they are no-ops here: [current] already is the feed with the holds
   applied, since every change to either republishes).  [expect_base]
   turns that precondition into a check: a diff computed against any other
   set raises instead of silently corrupting the delta window.  Holds are
   applied on top, so a frozen prefix stays at its pinned VRPs no matter
   what the diff says. *)
let publish_diff ?expect_base cache diff =
  (match expect_base with
  | Some expected ->
    let actual = feed_fingerprint cache in
    if not (Int64.equal expected actual) then raise (Base_mismatch { expected; actual })
  | None -> ());
  if not (Vrp.diff_is_empty diff) then install cache (Vrp.apply_diff cache.feed diff)

let hold cache ~prefix ~vrps =
  cache.holds <-
    (prefix, Vrp.normalize vrps)
    :: List.filter (fun (p, _) -> not (V4.Prefix.equal p prefix)) cache.holds;
  republish cache

let release cache ~prefix =
  cache.holds <- List.filter (fun (p, _) -> not (V4.Prefix.equal p prefix)) cache.holds;
  republish cache

(* Rehydrate from a persisted (serial, VRP set) pair.  The delta window is
   gone — routers whose serial does not match will take one Cache Reset —
   but the serial line continues instead of restarting from 0.  A serial
   that does not fit the PDU's 32 bits is refused before the cache is
   touched, so the failure lands here and not at every later encode. *)
let restore cache ~serial ~vrps =
  if serial > serial_mask then
    invalid_arg (Printf.sprintf "Session.restore: serial %d does not fit 32 bits" serial);
  let vrps = Vrp.normalize vrps in
  cache.serial <- max 0 serial;
  cache.feed <- vrps;
  cache.current <- vrps;
  cache.index <- None;
  cache.holds <- [];
  cache.deltas <- []

let notify cache = Pdu.Serial_notify { session_id = cache.session_id; serial = cache.serial }

(* The net announce/withdraw sets between [serial] and now, by composing the
   newest d stored deltas oldest-first, d the serial distance from
   [serial] to the cache's; [None] when the window no longer reaches back
   that far (a serial ahead of the cache's lies nearly 2^32 behind it).
   Composition cancels flapping: a VRP removed then re-added (or added then
   removed) across the window must not appear at all, or the router would
   see a withdrawal of a VRP it never had. *)
(* The accumulator is a hashtable keyed by VRP — O(1) per delta entry
   instead of a map's O(log n) per op (and no quadratic list appends),
   which matters when the serving plane composes deep windows for
   thousands of sessions under churn.  Results are sorted before
   returning so the output — and hence every encoded response buffer —
   stays deterministic. *)
let changes_since cache ~serial =
  let distance = (cache.serial - serial) land serial_mask in
  if distance = 0 then Some ([], [])
  else if distance > List.length cache.deltas then None
  else begin
    let tbl = Hashtbl.create 64 in
    (* first op tells the state at [serial] (a withdraw implies it was
       present); last op tells the state now.  [deltas] is newest-first, so
       walk its reverse to apply oldest-first. *)
    let record op v =
      match Hashtbl.find_opt tbl v with
      | None -> Hashtbl.replace tbl v (op, op)
      | Some (first, _) -> Hashtbl.replace tbl v (first, op)
    in
    List.iter
      (fun (d : Vrp.diff) ->
        List.iter (record `Withdraw) d.Vrp.removed;
        List.iter (record `Announce) d.Vrp.added)
      (List.rev (List.filteri (fun i _ -> i < distance) cache.deltas));
    (* only genuine transitions are emitted *)
    let announced, withdrawn =
      Hashtbl.fold
        (fun v (first, last) (announced, withdrawn) ->
          match (first, last) with
          | `Announce, `Announce -> (v :: announced, withdrawn)
          | `Withdraw, `Withdraw -> (announced, v :: withdrawn)
          | `Announce, `Withdraw | `Withdraw, `Announce -> (announced, withdrawn))
        tbl ([], [])
    in
    Some (List.sort Vrp.compare announced, List.sort Vrp.compare withdrawn)
  end

(* Serve one client request; returns the response PDU sequence (as bytes). *)
let serve cache (request_bytes : string) =
  let respond pdus = String.concat "" (List.map Pdu.encode pdus) in
  match Pdu.decode request_bytes with
  | Pdu.Reset_query ->
    respond
      ((Pdu.Cache_response { session_id = cache.session_id }
       :: List.map Pdu.of_vrp cache.current)
      @ [ Pdu.End_of_data { session_id = cache.session_id; serial = cache.serial } ])
  | Pdu.Serial_query { session_id; serial } ->
    if session_id <> cache.session_id then respond [ Pdu.Cache_reset ]
    else begin
      match changes_since cache ~serial with
      | None -> respond [ Pdu.Cache_reset ] (* too old: client must reset *)
      | Some (announced, withdrawn) ->
        respond
          ((Pdu.Cache_response { session_id = cache.session_id }
           :: List.map (Pdu.of_vrp ~flags:Pdu.Announce) announced)
          @ List.map (Pdu.of_vrp ~flags:Pdu.Withdraw) withdrawn
          @ [ Pdu.End_of_data { session_id = cache.session_id; serial = cache.serial } ])
    end
  | _ ->
    respond
      [ Pdu.Error_report { error_code = Pdu.err_invalid_request; message = "unexpected PDU" } ]
  | exception Pdu.Parse_error m ->
    respond [ Pdu.Error_report { error_code = Pdu.err_corrupt_data; message = m } ]

(* --- router (client) side --- *)

(* A router's state is one immutable value: session, serial and table.  The
   table is a sorted ([Vrp.compare]), duplicate-free array: one word per VRP,
   searched by bisection.  A response is checked against it and merged in
   once, at End of Data, into a fresh array.  [transition] reads nothing but
   (state, response bytes), and a router only ever swaps one whole state for
   another, so every router holding one state value can take the result of
   one transition. *)
type state = { session : int option; serial : int; vrps : Vrp.t array }

type router = { mutable state : state }

let fresh = { session = None; serial = 0; vrps = [||] }
let create_router () = { state = fresh }
let router_state router = router.state
let set_router_state router state = router.state <- state

(* The client side of acting on a Cache Reset: forget everything and start
   over with a Reset Query. *)
let reset_router router = router.state <- fresh

let router_session router = router.state.session
let router_serial router = router.state.serial
let router_vrps router = Array.to_list router.state.vrps

let router_in_sync router cache =
  router.state.session = Some cache.session_id
  && router.state.serial = cache.serial
  &&
  let table = router.state.vrps in
  let rec same i = function
    | [] -> i = Array.length table
    | v :: rest -> i < Array.length table && Vrp.equal table.(i) v && same (i + 1) rest
  in
  same 0 cache.current

exception Protocol_error of string

(* The first position in [table] whose VRP is not below [v]. *)
let lower_bound table v =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) lsr 1 in
      if Vrp.compare table.(mid) v < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length table)

(* The net effect on [table] of a response's prefix PDUs [ops] ((VRP,
   announce?) in PDU order): ascending [(position, Some v)] additions and
   [(position, None)] removals, and the size of the patched table.  A
   stable sort groups each VRP's PDUs in order (a snapshot arrives sorted
   and skips it); a group starts from the table's bisected answer, so a
   withdrawal is checked against the table and the earlier PDUs of its
   own response. *)
let net_changes table ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let cmp (a, _) (b, _) = Vrp.compare a b in
  let rec sorted i = i >= n || (cmp ops.(i - 1) ops.(i) <= 0 && sorted (i + 1)) in
  if not (sorted 1) then Array.stable_sort cmp ops;
  let rec group i changes size =
    if i >= n then (List.rev changes, size)
    else begin
      let v = fst ops.(i) in
      let p = lower_bound table v in
      let held = p < Array.length table && Vrp.equal table.(p) v in
      (* apply the group's PDUs from [j] on; returns where the next group
         starts and whether [v] is held after this one *)
      let rec apply j present =
        let present =
          if snd ops.(j) then true
          else if present then false
          else raise (Protocol_error "withdrawal of unknown VRP")
        in
        if j + 1 < n && Vrp.equal (fst ops.(j + 1)) v then apply (j + 1) present
        else (j + 1, present)
      in
      let next, present = apply i held in
      if present && not held then group next ((p, Some v) :: changes) (size + 1)
      else if held && not present then group next ((p, None) :: changes) (size - 1)
      else group next changes size
    end
  in
  group 0 [] (Array.length table)

(* [table] with [net_changes] applied, as a fresh array of [size]: the runs
   between change positions are blitted across.  Every slot is written, so
   any VRP at hand fills the array first. *)
let patch table changes size =
  let out =
    Array.make size (match changes with (_, Some v) :: _ -> v | _ -> table.(0))
  in
  let blit src dst len = if len > 0 then Array.blit table src out dst len in
  let rec go src dst = function
    | [] -> blit src dst (Array.length table - src)
    | (p, change) :: rest -> (
      let run = p - src in
      blit src dst run;
      match change with
      | Some v ->
        out.(dst + run) <- v;
        go p (dst + run + 1) rest
      | None -> go (p + 1) (dst + run) rest)
  in
  go 0 0 changes;
  out

(* The state a response leads to.  A Cache Response names the session
   first, so a response that breaks after it leaves the router on that
   session with its old serial and table: [Error] carries that state. *)
let transition state (bytes : string) =
  match Pdu.decode_all bytes with
  | Pdu.Cache_reset :: _ ->
    (* full resynchronisation required *)
    Ok ({ state with session = None }, `Reset_required)
  | Pdu.Cache_response { session_id } :: rest -> (
    match state.session with
    | Some s when s <> session_id -> Error (state, "session mismatch")
    | _ -> (
      let state = { state with session = Some session_id } in
      (* the prefix PDUs before End of Data, and how the response ends; any
         structural error comes after every collected PDU *)
      let rec collect ops = function
        | [ Pdu.End_of_data { serial; session_id = sid } ] ->
          (ops, if sid <> session_id then Error "session mismatch at EOD" else Ok serial)
        | Pdu.Ipv4_prefix { flags; prefix; max_len; asn } :: rest ->
          collect ((Vrp.make ~max_len prefix asn, flags = Pdu.Announce) :: ops) rest
        | Pdu.Ipv6_prefix _ :: rest -> collect ops rest (* carried but unindexed *)
        | [] -> (ops, Error "missing End of Data")
        | p :: _ -> (ops, Error ("unexpected " ^ Pdu.to_string p))
      in
      let ops, ending = collect [] rest in
      match (net_changes state.vrps (List.rev ops), ending) with
      | exception Protocol_error msg -> Error (state, msg)
      | _, Error msg -> Error (state, msg)
      | ([], _), Ok serial -> Ok ({ state with serial }, `Synced)
      | (changes, size), Ok serial ->
        Ok ({ state with serial; vrps = patch state.vrps changes size }, `Synced)))
  | Pdu.Error_report { error_code; message } :: _ ->
    Error (state, Printf.sprintf "cache error %d: %s" error_code message)
  | p :: _ -> Error (state, "unexpected " ^ Pdu.to_string p)
  | [] -> Error (state, "empty response")

let apply_response router bytes =
  match transition router.state bytes with
  | Ok (state, outcome) ->
    router.state <- state;
    outcome
  | Error (state, msg) ->
    router.state <- state;
    raise (Protocol_error msg)

(* One synchronisation round against a cache: incremental when possible,
   falling back to reset.  Returns the router's resulting VRP set. *)
let synchronize router cache =
  let query =
    match router.state.session with
    | Some sid when sid = cache.session_id ->
      Pdu.encode (Pdu.Serial_query { session_id = sid; serial = router.state.serial })
    | _ ->
      (* new or different cache: start a fresh session from nothing *)
      reset_router router;
      Pdu.encode Pdu.Reset_query
  in
  match apply_response router (serve cache query) with
  | `Synced -> router_vrps router
  | `Reset_required -> (
    (* the incremental window closed: start over from scratch *)
    reset_router router;
    match apply_response router (serve cache (Pdu.encode Pdu.Reset_query)) with
    | `Synced -> router_vrps router
    | `Reset_required -> raise (Protocol_error "reset loop"))
