(* BGP route propagation under Gao-Rexford export rules, with RPKI-aware
   route selection.

   For one prefix at a time: every announcement (origin) is flooded through
   the topology; each AS repeatedly selects its best route among what its
   neighbours export to it, until a fixpoint.  Validity-aware policies
   filter (drop) or rank (depref) routes by their origin-validation state.

   Export rule (Gao-Rexford): a route learned from a customer (or
   self-originated) is exported to everyone; a route learned from a peer or
   provider is exported only to customers.

   Selection order:
     1. (drop-invalid) invalid routes are not even candidates
     2. (depref-invalid) validity: valid > unknown > invalid
     3. relationship preference: customer > peer > provider
     4. shorter AS path
     5. lower next-hop ASN (determinism) *)

open Rpki_core

type announcement = {
  prefix : Rpki_ip.V4.Prefix.t;
  origin : int; (* the AS number placed in the origin position *)
}

type learned = From_customer | From_peer | From_provider | Self_originated

type entry = {
  ann : announcement;
  path : int list;     (* this AS first, origin last *)
  learned : learned;
  validity : Origin_validation.state;
}

let rel_rank = function
  | Self_originated -> 3
  | From_customer -> 2
  | From_peer -> 1
  | From_provider -> 0

(* Total preference order for routes at an AS with policy [policy]; bigger
   is better.  Returns a comparable key. *)
let preference_key ~(policy : Policy.t) (e : entry) =
  let validity_component =
    match policy with
    | Policy.Depref_invalid | Policy.Drop_invalid -> Policy.validity_rank e.validity
    | Policy.Ignore_rpki -> 0
  in
  (validity_component, rel_rank e.learned, -List.length e.path,
   -(match e.path with _ :: next :: _ -> next | _ -> 0))

let admissible ~(policy : Policy.t) (e : entry) =
  match policy with
  | Policy.Drop_invalid -> not (Origin_validation.equal_state e.validity Invalid)
  | Policy.Depref_invalid | Policy.Ignore_rpki -> true

let better ~policy a b = compare (preference_key ~policy a) (preference_key ~policy b) > 0

(* Would [holder] export its current entry to neighbour [rel_of_neighbour]?
   [rel_of_neighbour] is the neighbour's relationship to the holder. *)
let exports (e : entry) ~(to_ : Topology.rel) =
  match (e.learned, to_) with
  | (Self_originated | From_customer), _ -> true
  | (From_peer | From_provider), Topology.Customer -> true
  | (From_peer | From_provider), (Topology.Peer | Topology.Provider) -> false

(* A compact adjacency index over a topology snapshot: ASNs are renumbered
   to dense indices and every AS's neighbour list is one immutable array.
   The fixpoint below touches neighbour lists many times per AS; rebuilding
   them from three hashtable lookups per visit (as [Topology.neighbours]
   does) dominated propagation time on 2000+ AS graphs. *)
type adjacency = {
  adj_version : int;              (* Topology.version at build time *)
  index_of : (int, int) Hashtbl.t;
  asn_of : int array;             (* index -> asn, ascending *)
  neigh : (int * Topology.rel) array array;
      (* per index: (neighbour index, neighbour's relationship to this AS),
         in [Topology.neighbours] order *)
}

let build_adjacency (topo : Topology.t) : adjacency =
  let adj_version = Topology.version topo in
  let asn_of = Array.of_list (Topology.asns topo) in
  let n = Array.length asn_of in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i asn -> Hashtbl.replace index_of asn i) asn_of;
  let neigh =
    Array.map
      (fun asn ->
        Topology.neighbours topo asn
        |> List.map (fun (m, rel) -> (Hashtbl.find index_of m, rel))
        |> Array.of_list)
      asn_of
  in
  { adj_version; index_of; asn_of; neigh }

(* A few adjacencies are memoized, keyed by physical topology identity: a
   data plane build runs one [compute_classified] per changed prefix, and
   the loop builds one every tick over the same topology object. *)
let adjacency_memo : (Topology.t * adjacency) list ref = ref []

let adjacency_of (topo : Topology.t) : adjacency =
  match List.find_opt (fun (t, _) -> t == topo) !adjacency_memo with
  | Some (_, adj) when adj.adj_version = Topology.version topo -> adj
  | _ ->
    let adj = build_adjacency topo in
    let others = List.filter (fun (t, _) -> t != topo) !adjacency_memo in
    adjacency_memo := (topo, adj) :: List.filteri (fun i _ -> i < 3) others;
    adj

(* Every AS's best route for one prefix, by dense index.  Immutable once
   computed: successive data planes share unchanged RIBs. *)
type rib = {
  index_of : (int, int) Hashtbl.t;  (* the adjacency's asn -> index map *)
  best : entry option array;
}

(* [Oscillating]: ASes that rank validity first beside ASes that ignore it
   can chase each other round a dispute wheel for ever (see the
   interface). *)
type outcome = Stable of rib | Oscillating

(* Every AS's policy, by dense index (ascending ASN). *)
let policy_vector ~(topo : Topology.t) ~(policy_of : int -> Policy.t) =
  Array.map policy_of (adjacency_of topo).asn_of

(* Compute every AS's best route for one prefix, from its announcements
   paired with their origin-validation states.

   Worklist: only ASes whose entry just changed re-export, instead of
   sweeping every AS each round.  When an AS's entry changes, each
   neighbour takes the new offer if it beats the neighbour's current
   route.  Otherwise a neighbour whose route went through the changed AS
   (its next hop) reselects from scratch — its own originations and every
   neighbour's current export — because the route it held is gone.  An
   entry only ever moves to the best of what is on offer or to something
   better than every offer it has seen, so at the end every AS holds the
   best of what it originates and what its neighbours export: a stable
   state.  (Taking only strictly better offers, as an earlier version did,
   left an AS holding a route its next hop had dropped.)  A worklist still
   busy after 4n(n+2) steps is [Oscillating]. *)
let compute_classified ~(topo : Topology.t) ~(policy : Policy.t array)
    (classified : (announcement * Origin_validation.state) list) : outcome =
  let adj = adjacency_of topo in
  let n = Array.length adj.asn_of in
  if Array.length policy <> n then
    invalid_arg "Propagation.compute_classified: policy vector size";
  let best : entry option array = Array.make n None in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.push i queue
    end
  in
  let pick j cur e =
    if admissible ~policy:policy.(j) e then
      match cur with Some c when not (better ~policy:policy.(j) e c) -> cur | _ -> Some e
    else cur
  in
  (* self-originations, by AS index, in announcement order *)
  let originated =
    List.filter_map
      (fun (ann, validity) ->
        Option.map
          (fun i -> (i, { ann; path = [ ann.origin ]; learned = Self_originated; validity }))
          (Hashtbl.find_opt adj.index_of ann.origin))
      classified
  in
  (* what [i]'s current entry offers neighbour [j], where [rel_j_to_i] is
     j's relationship to i — exactly the [to_] the export rule judges *)
  let offer i j rel_j_to_i =
    match best.(i) with
    | Some e when exports e ~to_:rel_j_to_i && not (List.mem adj.asn_of.(j) e.path) ->
      let learned =
        (* j learns the route over the converse relationship: if j is i's
           customer, j learned it from its provider i *)
        match rel_j_to_i with
        | Topology.Customer -> From_provider
        | Topology.Provider -> From_customer
        | Topology.Peer -> From_peer
      in
      Some { e with learned; path = adj.asn_of.(j) :: e.path }
    | _ -> None
  in
  let converse = function
    | Topology.Customer -> Topology.Provider
    | Topology.Provider -> Topology.Customer
    | Topology.Peer -> Topology.Peer
  in
  let reselect j =
    let own =
      List.fold_left (fun cur (i, e) -> if i = j then pick j cur e else cur) None originated
    in
    Array.fold_left
      (fun cur (k, rel_k_to_j) ->
        match offer k j (converse rel_k_to_j) with Some e -> pick j cur e | None -> cur)
      own adj.neigh.(j)
  in
  List.iter
    (fun (i, e) ->
      let cur = best.(i) in
      let next = pick i cur e in
      if next != cur then begin
        best.(i) <- next;
        enqueue i
      end)
    originated;
  (* drain: the popped AS's neighbours see its changed entry *)
  let steps = ref 0 in
  let limit = 4 * n * (n + 2) in
  while !steps < limit && not (Queue.is_empty queue) do
    incr steps;
    let i = Queue.pop queue in
    queued.(i) <- false;
    Array.iter
      (fun (j, rel_j_to_i) ->
        let cur = best.(j) in
        let taken = match offer i j rel_j_to_i with Some e -> pick j cur e | None -> cur in
        let next =
          match cur with
          | Some { path = _ :: hop :: _; _ } when taken == cur && hop = adj.asn_of.(i) ->
            let r = reselect j in
            if r = cur then cur else r
          | _ -> taken
        in
        if next != cur then begin
          best.(j) <- next;
          enqueue j
        end)
      adj.neigh.(i)
  done;
  if Queue.is_empty queue then Stable { index_of = adj.index_of; best } else Oscillating

let classify ~validity_of anns =
  List.map (fun ann -> (ann, validity_of (Route.make ann.prefix ann.origin))) anns

let compute ~topo ~policy_of ~validity_of anns =
  compute_classified ~topo ~policy:(policy_vector ~topo ~policy_of) (classify ~validity_of anns)

let route rib asn =
  match Hashtbl.find_opt rib.index_of asn with None -> None | Some i -> rib.best.(i)

let next_hop (e : entry) = match e.path with _ :: n :: _ -> Some n | _ -> None
