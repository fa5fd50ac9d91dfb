(* The data plane: longest-prefix-match forwarding over per-prefix RIBs.

   This is where subprefix hijacks bite ("when a router is offered BGP
   routes for a prefix and its subprefix, it always chooses the subprefix
   route") and where the paper's reachability questions (Table 6, Section 6)
   are answered. *)

open Rpki_core
open Rpki_ip

(* One announced prefix: its announcements in list order, each paired with
   its origin-validation state, and what propagating them came to.
   Together with the topology and the policy vector, [inputs] is
   everything [Propagation.compute_classified] reads, so equal inputs mean
   an identical outcome. *)
type slot = {
  prefix : V4.Prefix.t;
  inputs : (Propagation.announcement * Origin_validation.state) list;
  outcome : Propagation.outcome;
}

type network = {
  topo : Topology.t;
  version : int;             (* Topology.version at build time *)
  policy : Policy.t array;   (* per AS, ascending ASN *)
  slots : slot list;         (* one per announced prefix, ascending *)
  lpm : Propagation.rib V4.Trie.t; (* each stable slot's RIB under its prefix *)
  recomputed : int;          (* RIBs this build computed rather than reused *)
}

(* The announcements grouped by prefix, ascending, each group in list
   order: one stable sort, one pass. *)
let group_by_prefix (classified : (Propagation.announcement * Origin_validation.state) list) =
  let prefix_of ((a : Propagation.announcement), _) = a.prefix in
  List.stable_sort (fun x y -> V4.Prefix.compare (prefix_of x) (prefix_of y)) classified
  |> List.fold_left
       (fun groups x ->
         match groups with
         | (p, run) :: rest when V4.Prefix.equal p (prefix_of x) -> (p, x :: run) :: rest
         | _ -> (prefix_of x, [ x ]) :: groups)
       []
  |> List.rev_map (fun (p, run) -> (p, List.rev run))

(* Compute RIBs for every distinct announced prefix.  With [prev] built
   over the same topology (same object, same version) and the same policy
   vector, a prefix whose classified announcements are unchanged keeps
   [prev]'s outcome: it is a pure function of exactly those inputs.  An
   oscillating prefix gets no forwarding entry anywhere, as route-flap
   damping (RFC 2439) would in time suppress it. *)
let build ?prev ~topo ~policy_of ~validity_of (anns : Propagation.announcement list) =
  let version = Topology.version topo in
  let policy = Propagation.policy_vector ~topo ~policy_of in
  let reusable =
    match prev with
    | Some p when p.topo == topo && p.version = version && p.policy = policy -> p.slots
    | _ -> []
  in
  let recomputed = ref 0 in
  (* walk the prefix groups alongside [prev]'s slots, both ascending *)
  let rec skip_below prefix = function
    | s :: rest when V4.Prefix.compare s.prefix prefix < 0 -> skip_below prefix rest
    | old -> old
  in
  let rec go old = function
    | [] -> []
    | (prefix, inputs) :: groups ->
      let old = skip_below prefix old in
      let outcome =
        match old with
        | s :: _ when V4.Prefix.equal s.prefix prefix && s.inputs = inputs -> s.outcome
        | _ ->
          incr recomputed;
          Propagation.compute_classified ~topo ~policy inputs
      in
      { prefix; inputs; outcome } :: go old groups
  in
  let slots = go reusable (group_by_prefix (Propagation.classify ~validity_of anns)) in
  let lpm =
    List.fold_left
      (fun lpm s ->
        match s.outcome with
        | Propagation.Stable rib -> V4.Trie.insert lpm s.prefix rib
        | Propagation.Oscillating -> lpm)
      V4.Trie.empty slots
  in
  { topo; version; policy; slots; lpm; recomputed = !recomputed }

let recomputed net = net.recomputed

let oscillating net =
  List.filter_map
    (fun s ->
      match s.outcome with Propagation.Oscillating -> Some s.prefix | Propagation.Stable _ -> None)
    net.slots

(* The forwarding decision of [asn] for destination [addr]: the entry of the
   longest prefix covering [addr] for which the AS holds a route.  Only the
   announced prefixes on the trie path to [addr] are consulted, longest
   first. *)
let forwarding_entry net ~asn ~addr =
  List.fold_left
    (fun best (prefix, rib) ->
      match best with
      | Some _ -> best
      | None -> Option.map (fun e -> (prefix, e)) (Propagation.route rib asn))
    None
    (List.rev (V4.Trie.covering net.lpm (V4.Prefix.make addr 32)))

type delivery =
  | Delivered of { origin : int; hops : int list } (* reached the origin AS *)
  | No_route of int                                (* AS with no route *)
  | Loop of int list

(* Trace a packet from [src] AS toward [addr], hop by hop.  Each hop
   re-evaluates LPM with its own RIB, so a subprefix hijack diverts traffic
   even at ASes that still hold the victim's covering route. *)
let trace net ~src ~addr =
  let rec go asn visited =
    if List.mem asn visited then Loop (List.rev (asn :: visited))
    else begin
      match forwarding_entry net ~asn ~addr with
      | None -> No_route asn
      | Some (_, e) -> (
        if e.Propagation.ann.Propagation.origin = asn then
          Delivered { origin = asn; hops = List.rev (asn :: visited) }
        else
          match Propagation.next_hop e with
          | None -> Delivered { origin = asn; hops = List.rev (asn :: visited) }
          | Some nh -> go nh (asn :: visited))
    end
  in
  go src []

(* Does traffic from [src] to [addr] reach [expected] (the legitimate
   origin)? *)
let reaches net ~src ~addr ~expected =
  match trace net ~src ~addr with
  | Delivered { origin; _ } -> origin = expected
  | No_route _ | Loop _ -> false

(* Fraction of ASes whose traffic to [addr] reaches [expected]. *)
let reachability_fraction net ~addr ~expected =
  let asns = Topology.asns net.topo in
  let ok = List.length (List.filter (fun a -> reaches net ~src:a ~addr ~expected) asns) in
  float_of_int ok /. float_of_int (List.length asns)
