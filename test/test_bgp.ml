(* Tests for the BGP substrate: topology, Gao-Rexford propagation, RPKI-aware
   selection, hijacks and the data plane. *)

open Rpki_core
open Rpki_bgp
open Rpki_ip

let all_valid (_ : Route.t) = Origin_validation.Valid

(* The RIB of a propagation that must settle. *)
let stable = function
  | Propagation.Stable rib -> rib
  | Propagation.Oscillating -> Alcotest.fail "propagation oscillated"

(* --- topology --- *)

let test_topology_links () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Topology.peer t 1 4;
  Alcotest.(check (list int)) "asns" [ 1; 2; 3; 4 ] (Topology.asns t);
  Alcotest.(check (list int)) "providers of 3" [ 2 ] (Topology.providers t 3);
  Alcotest.(check (list int)) "customers of 1" [ 2 ] (Topology.customers t 1);
  Alcotest.(check (list int)) "peers of 4" [ 1 ] (Topology.peers t 4);
  Alcotest.(check int) "neighbours of 2" 2 (List.length (Topology.neighbours t 2))

let test_topology_rejects_cycle () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Alcotest.(check bool) "cycle rejected" true
    (try
       Topology.link t ~provider:3 ~customer:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "self link rejected" true
    (try
       Topology.link t ~provider:1 ~customer:1;
       false
     with Invalid_argument _ -> true)

(* --- propagation --- *)

(* chain: 1 <- 2 <- 3 (1 is top provider), plus peer 1~4 *)
let chain () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:3;
  Topology.peer t 1 4;
  t

let prefix = V4.p "10.0.0.0/16"

let test_propagation_reaches_everyone () =
  let t = chain () in
  let rib =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
         [ { Propagation.prefix; origin = 3 } ])
  in
  List.iter
    (fun asn ->
      match Propagation.route rib asn with
      | None -> Alcotest.failf "AS%d has no route" asn
      | Some e -> Alcotest.(check int) (Printf.sprintf "origin at %d" asn) 3
          e.Propagation.ann.Propagation.origin)
    [ 1; 2; 3; 4 ]

let test_propagation_valley_free () =
  (* a route learned from a peer must not be exported to another peer:
     topology 4 ~ 1 ~ 5 (two peerings); origin at 4; 5 must NOT hear it *)
  let t = Topology.create () in
  Topology.peer t 1 4;
  Topology.peer t 1 5;
  let rib =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
         [ { Propagation.prefix; origin = 4 } ])
  in
  Alcotest.(check bool) "1 hears it" true (Propagation.route rib 1 <> None);
  Alcotest.(check bool) "5 does not (valley-free)" true (Propagation.route rib 5 = None)

let test_propagation_prefers_customer () =
  (* AS 1 can reach the origin 9 via customer 2 or via peer 3; must choose
     the customer path even if longer *)
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;
  Topology.peer t 1 3;
  Topology.link t ~provider:3 ~customer:9;
  let rib =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
         [ { Propagation.prefix; origin = 9 } ])
  in
  match Propagation.route rib 1 with
  | Some e -> Alcotest.(check (option int)) "next hop is customer" (Some 2) (Propagation.next_hop e)
  | None -> Alcotest.fail "no route at 1"

let test_propagation_prefers_shorter () =
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;
  Topology.link t ~provider:1 ~customer:9;
  let rib =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:all_valid
         [ { Propagation.prefix; origin = 9 } ])
  in
  match Propagation.route rib 1 with
  | Some e -> Alcotest.(check int) "direct path" 2 (List.length e.Propagation.path)
  | None -> Alcotest.fail "no route"

let test_drop_invalid_blocks () =
  let t = chain () in
  let invalid (_ : Route.t) = Origin_validation.Invalid in
  let rib =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Drop_invalid) ~validity_of:invalid
         [ { Propagation.prefix; origin = 3 } ])
  in
  List.iter (fun asn -> Alcotest.(check bool) "dropped" true (Propagation.route rib asn = None)) [ 1; 2; 3; 4 ]

let test_depref_prefers_valid () =
  (* two origins for the same prefix; AS 1 hears the invalid one via a
     shorter customer path and the valid one via a longer one — depref must
     pick valid anyway *)
  let t = Topology.create () in
  Topology.link t ~provider:1 ~customer:66;      (* attacker, direct customer *)
  Topology.link t ~provider:1 ~customer:2;
  Topology.link t ~provider:2 ~customer:9;       (* victim, two hops down *)
  let validity (r : Route.t) =
    if r.Route.origin = 9 then Origin_validation.Valid else Origin_validation.Invalid
  in
  let anns = [ { Propagation.prefix; origin = 9 }; { Propagation.prefix; origin = 66 } ] in
  let rib_depref =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Depref_invalid) ~validity_of:validity
         anns)
  in
  (match Propagation.route rib_depref 1 with
  | Some e -> Alcotest.(check int) "depref picks valid origin" 9 e.Propagation.ann.Propagation.origin
  | None -> Alcotest.fail "no route");
  let rib_ignore =
    stable
      (Propagation.compute ~topo:t ~policy_of:(fun _ -> Policy.Ignore_rpki) ~validity_of:validity
         anns)
  in
  match Propagation.route rib_ignore 1 with
  | Some e -> Alcotest.(check int) "ignore picks shorter (attacker)" 66 e.Propagation.ann.Propagation.origin
  | None -> Alcotest.fail "no route"

(* --- data plane --- *)

let test_lpm_forwarding () =
  let s = Topo_gen.small_scenario () in
  let victim_prefix = V4.p "63.174.16.0/20" in
  let dst = V4.addr_of_string_exn "63.174.23.7" in
  let sub = Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24 in
  Alcotest.(check string) "subprefix" "63.174.23.0/24" (V4.Prefix.to_string sub);
  let anns =
    Hijack.announcements ~victim_prefix ~victim_as:s.Topo_gen.victim
      ~attacker_as:s.Topo_gen.attacker (Hijack.Subprefix_hijack sub)
  in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid anns
  in
  (* LPM sends the packet to the hijacker even though the /20 route exists *)
  (match Data_plane.trace net ~src:s.Topo_gen.source ~addr:dst with
  | Data_plane.Delivered { origin; _ } -> Alcotest.(check int) "intercepted" s.Topo_gen.attacker origin
  | _ -> Alcotest.fail "no delivery");
  (* an address outside the hijacked /24 still reaches the victim *)
  let dst2 = V4.addr_of_string_exn "63.174.18.1" in
  match Data_plane.trace net ~src:s.Topo_gen.source ~addr:dst2 with
  | Data_plane.Delivered { origin; _ } -> Alcotest.(check int) "victim" s.Topo_gen.victim origin
  | _ -> Alcotest.fail "no delivery 2"

let test_no_route () =
  let s = Topo_gen.small_scenario () in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
      ~validity_of:all_valid []
  in
  match Data_plane.trace net ~src:s.Topo_gen.source ~addr:(V4.addr_of_string_exn "8.8.8.8") with
  | Data_plane.No_route _ -> ()
  | _ -> Alcotest.fail "expected no route"

(* --- hijack helpers --- *)

let test_hijack_validation () =
  Alcotest.(check bool) "not a subprefix" true
    (try
       ignore
         (Hijack.announcements ~victim_prefix:prefix ~victim_as:1 ~attacker_as:2
            (Hijack.Subprefix_hijack (V4.p "99.0.0.0/24")));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "prefix hijack: two announcements" 2
    (List.length (Hijack.announcements ~victim_prefix:prefix ~victim_as:1 ~attacker_as:2 Hijack.Prefix_hijack))

(* --- generated topology sanity --- *)

let test_topo_gen () =
  let g = Topo_gen.generate Topo_gen.default_spec in
  let n = List.length (Topology.asns g.Topo_gen.topo) in
  Alcotest.(check int) "as count"
    (Topo_gen.default_spec.Topo_gen.tier1 + Topo_gen.default_spec.Topo_gen.tier2
    + Topo_gen.default_spec.Topo_gen.stubs)
    n;
  (* every stub can reach a tier-1-originated prefix *)
  let origin = List.hd g.Topo_gen.tier1_asns in
  let rib =
    stable
      (Propagation.compute ~topo:g.Topo_gen.topo ~policy_of:(fun _ -> Policy.Ignore_rpki)
         ~validity_of:all_valid
         [ { Propagation.prefix; origin } ])
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "stub %d reached" s) true (Propagation.route rib s <> None))
    g.Topo_gen.stub_asns;
  (* determinism *)
  let g2 = Topo_gen.generate Topo_gen.default_spec in
  Alcotest.(check (list int)) "deterministic" (Topology.asns g.Topo_gen.topo)
    (Topology.asns g2.Topo_gen.topo)

(* --- Table 6 shape on the small scenario --- *)

let table6_cell policy attack =
  let s = Topo_gen.small_scenario () in
  let victim_prefix = V4.p "63.174.16.0/20" in
  let dst = V4.addr_of_string_exn "63.174.23.7" in
  let idx = Origin_validation.build [ Vrp.make ~max_len:20 victim_prefix s.Topo_gen.victim ] in
  let validity r = Origin_validation.classify idx r in
  let anns =
    match attack with
    | `Subprefix_hijack ->
      Hijack.announcements ~victim_prefix ~victim_as:s.Topo_gen.victim
        ~attacker_as:s.Topo_gen.attacker
        (Hijack.Subprefix_hijack (Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24))
    | `Rpki_manipulation ->
      (* ROA whacked while a covering ROA exists: victim's route is invalid *)
      [ { Propagation.prefix = victim_prefix; origin = s.Topo_gen.victim } ]
  in
  let validity =
    match attack with
    | `Subprefix_hijack -> validity
    | `Rpki_manipulation ->
      fun (r : Route.t) ->
        Origin_validation.classify
          (Origin_validation.build [ Vrp.make ~max_len:13 (V4.p "63.160.0.0/12") 1239 ])
          r
  in
  let net =
    Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> policy) ~validity_of:validity anns
  in
  Data_plane.reaches net ~src:s.Topo_gen.source ~addr:dst ~expected:s.Topo_gen.victim

let test_table6 () =
  (* drop invalid: reachable under routing attack, not under manipulation *)
  Alcotest.(check bool) "drop/hijack" true (table6_cell Policy.Drop_invalid `Subprefix_hijack);
  Alcotest.(check bool) "drop/manip" false (table6_cell Policy.Drop_invalid `Rpki_manipulation);
  (* depref invalid: the opposite corner *)
  Alcotest.(check bool) "depref/hijack" false (table6_cell Policy.Depref_invalid `Subprefix_hijack);
  Alcotest.(check bool) "depref/manip" true (table6_cell Policy.Depref_invalid `Rpki_manipulation)

(* --- incremental data plane ---------------------------------------------- *)

(* A chain of [Data_plane.build ~prev] over a random small world must agree
   with a fresh build at every step, and recompute exactly the prefixes
   whose announcements changed validity — all of them after a topology or
   policy change in the middle of the chain. *)

type chain_case = {
  spec : As_graph.spec;
  seed : int;       (* announcements, VRP sets and policies *)
  steps : int;      (* VRP sets in the chain *)
  event : [ `None | `Link | `Policy_flip ];
  event_at : int;   (* the step the event precedes *)
}

let chain_gen =
  QCheck.Gen.(
    let* ases = int_range 8 40 in
    let* tier1 = int_range 2 4 in
    let* attach = int_range 1 2 in
    let* peer_fraction = float_bound_inclusive 0.2 in
    let* graph_seed = int_range 0 1_000_000 in
    let* seed = int_range 0 1_000_000 in
    let* steps = int_range 2 7 in
    let* event = oneofl [ `None; `Link; `Policy_flip ] in
    let* event_at = int_range 1 (steps - 1) in
    return
      { spec = { As_graph.ases; tier1; attach; peer_fraction; seed = graph_seed; first_asn = 1 };
        seed; steps; event; event_at })

let chain_print c =
  Printf.sprintf
    "{ases=%d; tier1=%d; attach=%d; peer_fraction=%.3f; graph_seed=%d; seed=%d; steps=%d; event=%s@%d}"
    c.spec.As_graph.ases c.spec.As_graph.tier1 c.spec.As_graph.attach
    c.spec.As_graph.peer_fraction c.spec.As_graph.seed c.seed c.steps
    (match c.event with `None -> "none" | `Link -> "link" | `Policy_flip -> "policy-flip")
    c.event_at

let chain_arb = QCheck.make ~print:chain_print chain_gen

(* A customer-provider edge the graph does not have yet: a tier-1 over a
   non-tier-1 AS (tier-1s have no providers, so no cycle can form), or a
   fresh AS when every such pair is already linked. *)
let new_link g =
  let topo = As_graph.topology g in
  let tier1s = As_graph.tier1s g in
  let pairs =
    List.concat_map
      (fun c ->
        if List.mem c tier1s then []
        else
          List.filter_map
            (fun p -> if List.mem p (Topology.providers topo c) then None else Some (p, c))
            tier1s)
      (As_graph.asns g)
  in
  match pairs with
  | pc :: _ -> pc
  | [] -> (List.hd tier1s, 1 + List.fold_left max 0 (As_graph.asns g))

let prop_incremental_equals_fresh =
  QCheck.Test.make ~name:"build ~prev agrees with a fresh build" ~count:150 chain_arb (fun c ->
      let g = As_graph.generate c.spec in
      let topo = As_graph.topology g in
      let asns = Array.of_list (As_graph.asns g) in
      let rng = Random.State.make [| c.seed |] in
      let pick_as () = asns.(Random.State.int rng (Array.length asns)) in
      (* up to three /16s with one to three origins each (a multi-origin
         prefix), half of them under a /24 sub-prefix hijack *)
      let bases =
        List.init (1 + Random.State.int rng 3) (fun k -> V4.Prefix.make ((10 lsl 24) lor (k lsl 16)) 16)
      in
      let subs =
        List.filter_map
          (fun base ->
            if Random.State.bool rng then
              Some (V4.Prefix.make (V4.Prefix.addr base lor (Random.State.int rng 256 lsl 8)) 24)
            else None)
          bases
      in
      let anns =
        List.concat_map
          (fun base ->
            List.init (1 + Random.State.int rng 3) (fun _ ->
                { Propagation.prefix = base; origin = pick_as () }))
          bases
        @ List.map (fun sub -> { Propagation.prefix = sub; origin = pick_as () }) subs
      in
      let prefixes = List.sort_uniq V4.Prefix.compare (List.map (fun a -> a.Propagation.prefix) anns) in
      (* the VRP pool: per /16, one for an announced origin (maxLength 16 or
         24) and one for a random AS; each step draws a subset, or repeats
         the previous step's set so that quiet steps occur *)
      let pool =
        List.concat_map
          (fun base ->
            let owner = List.find (fun a -> V4.Prefix.equal a.Propagation.prefix base) anns in
            [ Vrp.make ~max_len:(if Random.State.bool rng then 16 else 24) base
                owner.Propagation.origin;
              Vrp.make ~max_len:16 base (pick_as ()) ])
          bases
      in
      let draw () = List.filter (fun _ -> Random.State.bool rng) pool in
      let vrp_sets =
        let rec go prev i =
          if i = c.steps then []
          else
            let set = if Random.State.int rng 3 = 0 then prev else draw () in
            set :: go set (i + 1)
        in
        go (draw ()) 0
      in
      let base_policy = Hashtbl.create 64 in
      Array.iter
        (fun asn -> Hashtbl.replace base_policy asn (List.nth Policy.all (Random.State.int rng 3)))
        asns;
      let flip_asn = pick_as () in
      let flipped = ref false in
      let policy_of asn =
        let p = Option.value ~default:Policy.Ignore_rpki (Hashtbl.find_opt base_policy asn) in
        if !flipped && asn = flip_asn then
          match p with
          | Policy.Drop_invalid -> Policy.Depref_invalid
          | Policy.Depref_invalid -> Policy.Ignore_rpki
          | Policy.Ignore_rpki -> Policy.Drop_invalid
        else p
      in
      let probes =
        V4.addr_of_string_exn "192.0.2.1"
        :: List.map (fun p -> V4.Prefix.addr p lor 0x0101) bases
        @ List.map (fun p -> V4.Prefix.addr p lor 1) subs
      in
      let validity_in vrps =
        let idx = Origin_validation.build vrps in
        fun (a : Propagation.announcement) ->
          Origin_validation.classify idx (Route.make a.Propagation.prefix a.Propagation.origin)
      in
      let changed_prefixes before after =
        List.length
          (List.filter
             (fun p ->
               List.exists
                 (fun a ->
                   V4.Prefix.equal a.Propagation.prefix p
                   && not (Origin_validation.equal_state (before a) (after a)))
                 anns)
             prefixes)
      in
      let all = List.length prefixes in
      let _ =
        List.fold_left
          (fun (i, prev, prev_validity) vrps ->
            let event = i = c.event_at && c.event <> `None in
            if event then begin
              match c.event with
              | `Link ->
                let provider, customer = new_link g in
                Topology.link topo ~provider ~customer
              | `Policy_flip -> flipped := true
              | `None -> ()
            end;
            let validity = validity_in vrps in
            let validity_of (r : Route.t) =
              validity { Propagation.prefix = r.Route.prefix; origin = r.Route.origin }
            in
            let fresh = Data_plane.build ~topo ~policy_of ~validity_of anns in
            let chained = Data_plane.build ?prev ~topo ~policy_of ~validity_of anns in
            if Data_plane.recomputed fresh <> all then
              QCheck.Test.fail_reportf "step %d: fresh build computed %d of %d RIBs" i
                (Data_plane.recomputed fresh) all;
            let expected =
              match prev_validity with
              | None -> all
              | Some _ when event -> all
              | Some before -> changed_prefixes before validity
            in
            if Data_plane.recomputed chained <> expected then
              QCheck.Test.fail_reportf "step %d: chained build computed %d RIBs, expected %d" i
                (Data_plane.recomputed chained) expected;
            if Data_plane.oscillating chained <> Data_plane.oscillating fresh then
              QCheck.Test.fail_reportf "step %d: oscillating prefixes differ" i;
            List.iter
              (fun src ->
                List.iter
                  (fun addr ->
                    if Data_plane.forwarding_entry chained ~asn:src ~addr
                       <> Data_plane.forwarding_entry fresh ~asn:src ~addr
                    then QCheck.Test.fail_reportf "step %d: forwarding entry differs at AS%d" i src;
                    if Data_plane.trace chained ~src ~addr <> Data_plane.trace fresh ~src ~addr then
                      QCheck.Test.fail_reportf "step %d: trace differs from AS%d" i src)
                  probes)
              (Topology.asns topo);
            (i + 1, Some chained, Some validity))
          (0, None, None) vrp_sets
      in
      true)

(* --- the longest-prefix index against a linear scan ---------------------

   [Data_plane] answers each hop from a trie over the announced prefixes.
   The oracle below is the scan it replaced: every announced prefix,
   ascending, keeping the longest that covers the address and for which
   the AS holds a route, over RIBs computed here one prefix at a time. *)

let scan_forwarding_entry ribs ~asn ~addr =
  List.fold_left
    (fun best (prefix, rib) ->
      let longer =
        match best with
        | Some (bp, _) -> V4.Prefix.len prefix > V4.Prefix.len bp
        | None -> true
      in
      if V4.Prefix.contains_addr prefix addr && longer then
        match Propagation.route rib asn with Some e -> Some (prefix, e) | None -> best
      else best)
    None ribs

let scan_trace ribs ~src ~addr =
  let rec go asn visited =
    if List.mem asn visited then Data_plane.Loop (List.rev (asn :: visited))
    else
      match scan_forwarding_entry ribs ~asn ~addr with
      | None -> Data_plane.No_route asn
      | Some (_, e) -> (
        let delivered () =
          Data_plane.Delivered { origin = asn; hops = List.rev (asn :: visited) }
        in
        if e.Propagation.ann.Propagation.origin = asn then delivered ()
        else
          match Propagation.next_hop e with
          | None -> delivered ()
          | Some nh -> go nh (asn :: visited))
  in
  go src []

(* Nested prefixes: each chain starts at a /8../16 and descends through up
   to three more-specifics, each announced by the covering prefix's origin
   or, as a hijack, by another AS (sometimes both); VRPs cover a random
   subset, so some hijacks are invalid and some policies drop them. *)
let prop_lpm_index_equals_scan =
  QCheck.Test.make ~name:"indexed forwarding equals a linear scan" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (graph_seed, seed) ->
      let rng = Random.State.make [| seed |] in
      let spec =
        { As_graph.ases = 6 + Random.State.int rng 20; tier1 = 2;
          attach = 1 + Random.State.int rng 2; peer_fraction = 0.2; seed = graph_seed;
          first_asn = 1 }
      in
      let topo = As_graph.topology (As_graph.generate spec) in
      let asns = Array.of_list (Topology.asns topo) in
      let pick_as () = asns.(Random.State.int rng (Array.length asns)) in
      let chain () =
        let len0 = 8 + Random.State.int rng 9 in
        let top = V4.Prefix.make (Random.State.bits rng lsl 2 land 0xFFFFFFFF) len0 in
        let rec down prefix origin depth =
          let here =
            match Random.State.int rng 3 with
            | 0 -> [ { Propagation.prefix; origin } ]
            | 1 -> [ { Propagation.prefix; origin = pick_as () } ]
            | _ -> [ { Propagation.prefix; origin }; { Propagation.prefix; origin = pick_as () } ]
          in
          let plen = V4.Prefix.len prefix in
          if depth = 0 || plen >= 30 then here
          else begin
            let len = plen + 1 + Random.State.int rng (min 8 (30 - plen)) in
            let host = Random.State.bits rng land ((1 lsl (32 - plen)) - 1) in
            here @ down (V4.Prefix.make (V4.Prefix.addr prefix lor host) len) origin (depth - 1)
          end
        in
        down top (pick_as ()) (Random.State.int rng 4)
      in
      let anns = List.concat (List.init (1 + Random.State.int rng 3) (fun _ -> chain ())) in
      let vrps =
        List.filter_map
          (fun (a : Propagation.announcement) ->
            let len = V4.Prefix.len a.Propagation.prefix in
            if Random.State.bool rng then
              Some
                (Vrp.make ~max_len:(len + Random.State.int rng (33 - len)) a.Propagation.prefix
                   a.Propagation.origin)
            else None)
          anns
      in
      let idx = Origin_validation.build vrps in
      let validity_of r = Origin_validation.classify idx r in
      let policies = Hashtbl.create 32 in
      Array.iter
        (fun a -> Hashtbl.replace policies a (List.nth Policy.all (Random.State.int rng 3)))
        asns;
      let policy_of a = Hashtbl.find policies a in
      let net = Data_plane.build ~topo ~policy_of ~validity_of anns in
      let prefixes =
        List.sort_uniq V4.Prefix.compare (List.map (fun a -> a.Propagation.prefix) anns)
      in
      let outcomes =
        List.map
          (fun p ->
            ( p,
              Propagation.compute ~topo ~policy_of ~validity_of
                (List.filter (fun a -> V4.Prefix.equal a.Propagation.prefix p) anns) ))
          prefixes
      in
      (* an oscillating prefix is installed nowhere *)
      let ribs =
        List.filter_map
          (function p, Propagation.Stable rib -> Some (p, rib) | _, Propagation.Oscillating -> None)
          outcomes
      in
      if
        Data_plane.oscillating net
        <> List.filter_map
             (function p, Propagation.Oscillating -> Some p | _, Propagation.Stable _ -> None)
             outcomes
      then QCheck.Test.fail_report "oscillating prefixes differ from the scan";
      (* each prefix's first, last and a random address, its neighbours
         just outside, and a few anywhere *)
      let probes =
        List.concat_map
          (fun p ->
            let first = V4.Prefix.addr p and last = V4.Prefix.last p in
            let inside = first lor (Random.State.bits rng land (last - first)) in
            [ first; last; inside ]
            @ (if first > 0 then [ first - 1 ] else [])
            @ if last < 0xFFFFFFFF then [ last + 1 ] else [])
          prefixes
        @ List.init 4 (fun _ -> Random.State.bits rng lsl 2 land 0xFFFFFFFF)
      in
      List.iter
        (fun src ->
          List.iter
            (fun addr ->
              if
                Data_plane.forwarding_entry net ~asn:src ~addr
                <> scan_forwarding_entry ribs ~asn:src ~addr
              then
                QCheck.Test.fail_reportf "forwarding entry of AS%d for %s differs from the scan" src
                  (Addr.V4.to_string addr);
              if Data_plane.trace net ~src ~addr <> scan_trace ribs ~src ~addr then
                QCheck.Test.fail_reportf "trace from AS%d to %s differs from the scan" src
                  (Addr.V4.to_string addr))
            probes)
        (Array.to_list asns);
      true)

(* --- propagation oracle --- *)

(* Selection written out from its definition: the best admissible route
   among an AS's own originations and what each neighbour's current entry
   exports to it, loop-free.  [rel] is the neighbour's relationship to the
   AS, so the AS is the neighbour's converse. *)
let select ~topo ~policy_of ~own ~current asn =
  let policy = policy_of asn in
  let converse = Topology.(function Customer -> Provider | Provider -> Customer | Peer -> Peer) in
  let offer (k, rel) =
    match current k with
    | Some (e : Propagation.entry)
      when Propagation.exports e ~to_:(converse rel) && not (List.mem asn e.Propagation.path) ->
      let learned =
        match rel with
        | Topology.Customer -> Propagation.From_customer
        | Topology.Provider -> Propagation.From_provider
        | Topology.Peer -> Propagation.From_peer
      in
      Some { e with Propagation.learned; path = asn :: e.Propagation.path }
    | _ -> None
  in
  List.fold_left
    (fun cur e ->
      if not (Propagation.admissible ~policy e) then cur
      else match cur with Some c when not (Propagation.better ~policy e c) -> cur | _ -> Some e)
    None
    (own asn @ List.filter_map offer (Topology.neighbours topo asn))

(* The reference: sweep every AS in ASN order from the empty state until a
   sweep changes nothing, or [None] if sweeps keep changing something. *)
let sweep ~topo ~policy_of ~own =
  let rib = Hashtbl.create 64 in
  let current a = Option.join (Hashtbl.find_opt rib a) in
  let rec go k =
    if k > 4 * List.length (Topology.asns topo) then None
    else
      let changed =
        List.fold_left
          (fun changed a ->
            let e = select ~topo ~policy_of ~own ~current a in
            if e = current a then changed else (Hashtbl.replace rib a e; true))
          false (Topology.asns topo)
      in
      if changed then go (k + 1) else Some current
  in
  go 0

(* One propagation input: a generated graph, one prefix's origins with
   their validity (0 valid, 1 unknown, 2 invalid), and one policy for
   every AS or one drawn per AS from [seed].  Returns the topology, the
   policies, the classified announcements and each AS's own originations. *)
let propagation_case (spec, origins, policies, seed) =
  let topo = As_graph.topology (As_graph.generate spec) in
  let rng = Random.State.make [| seed |] in
  let mixed = Hashtbl.create 64 in
  List.iter
    (fun a -> Hashtbl.replace mixed a (List.nth Policy.all (Random.State.int rng 3)))
    (Topology.asns topo);
  let policy_of a =
    match policies with `Uniform p -> List.nth Policy.all p | `Mixed -> Hashtbl.find mixed a
  in
  let classified =
    List.map
      (fun (origin, v) ->
        ({ Propagation.prefix; origin }, List.nth Origin_validation.[ Valid; Unknown; Invalid ] v))
      origins
  in
  let own a =
    List.filter_map
      (fun ((ann : Propagation.announcement), validity) ->
        if ann.Propagation.origin = a then
          Some { Propagation.ann; path = [ a ]; learned = Propagation.Self_originated; validity }
        else None)
      classified
  in
  (topo, policy_of, classified, own)

(* Do the ASes rank the announcements differently?  Only if some AS ranks
   validity first ([Drop_invalid], [Depref_invalid]), some AS ignores it,
   and the announcements differ in validity.  Otherwise every AS orders
   the routes it may take alike, and Gao-Rexford's conditions hold. *)
let ranks_differ ~topo ~policy_of classified =
  let policies = List.map policy_of (Topology.asns topo) in
  List.mem Policy.Ignore_rpki policies
  && List.exists (fun p -> p <> Policy.Ignore_rpki) policies
  && List.length (List.sort_uniq compare (List.map snd classified)) > 1

(* On an input that settles, every AS holds the best route on offer (and,
   with one policy for all, the route the sweep reference settles on).  An
   input may oscillate only if its ASes rank the announcements
   differently; one that does is pinned below. *)
let prop_propagation_stable =
  let gen =
    QCheck.Gen.(
      let* ases = int_range 8 40 and* tier1 = int_range 2 4 and* attach = int_range 1 3 in
      let* peer_fraction = float_bound_inclusive 0.3 and* graph_seed = int_range 0 1_000_000 in
      let* origins = list_size (int_range 1 3) (pair (int_range 1 ases) (int_range 0 2)) in
      let* policies = oneof [ map (fun p -> `Uniform p) (int_range 0 2); return `Mixed ] in
      let* seed = int_range 0 1_000_000 in
      return
        ( { As_graph.ases; tier1 = min tier1 ases; attach; peer_fraction; seed = graph_seed;
            first_asn = 1 },
          origins, policies, seed ))
  in
  let print (spec, origins, policies, seed) =
    Printf.sprintf "ases=%d tier1=%d attach=%d peers=%.3f graph_seed=%d origins=[%s] %s seed=%d"
      spec.As_graph.ases spec.As_graph.tier1 spec.As_graph.attach spec.As_graph.peer_fraction
      spec.As_graph.seed
      (String.concat ";" (List.map (fun (o, v) -> Printf.sprintf "AS%d:%d" o v) origins))
      (match policies with `Uniform p -> Printf.sprintf "uniform:%d" p | `Mixed -> "mixed")
      seed
  in
  QCheck.Test.make ~name:"every AS holds the best route on offer" ~count:1000
    (QCheck.make ~print gen) (fun ((_, _, policies, _) as case) ->
      let topo, policy_of, classified, own = propagation_case case in
      (match
         Propagation.compute_classified ~topo
           ~policy:(Propagation.policy_vector ~topo ~policy_of) classified
       with
      | Propagation.Oscillating ->
        if not (ranks_differ ~topo ~policy_of classified) then
          QCheck.Test.fail_report "oscillated though every AS ranks the routes alike"
      | Propagation.Stable rib ->
        let current = Propagation.route rib in
        let reference =
          match policies with
          | `Uniform _ ->
            let r = sweep ~topo ~policy_of ~own in
            if Option.is_none r then QCheck.Test.fail_report "sweep diverged";
            r
          | `Mixed -> None
        in
        List.iter
          (fun a ->
            if current a <> select ~topo ~policy_of ~own ~current a then
              QCheck.Test.fail_reportf "AS%d does not hold the best route on offer" a;
            match reference with
            | Some r when current a <> r a ->
              QCheck.Test.fail_reportf "AS%d differs from the sweep" a
            | _ -> ())
          (Topology.asns topo));
      true)

(* A dispute wheel the property drew (QCHECK_SEED=997852551): ASes that
   rank validity first beside ASes that ignore it, one unknown and one
   valid origin.  The worklist is still busy at its step cap, and at a
   hundred times that cap.  A stable state exists, since sweeping the ASes
   in ASN order reaches one, but the order in which the worklist wakes
   them never does: whether such a wheel settles depends on timing.  The
   data plane installs the prefix nowhere. *)
let test_dispute_wheel () =
  let case =
    ( { As_graph.ases = 25; tier1 = 4; attach = 1;
        peer_fraction = 0x1.43a158a71a9e9p-3 (* 0.158 *); seed = 998150; first_asn = 1 },
      [ (22, 1); (4, 0) ], `Mixed, 636026 )
  in
  let topo, policy_of, classified, own = propagation_case case in
  Alcotest.(check bool) "the ASes rank the routes differently" true
    (ranks_differ ~topo ~policy_of classified);
  Alcotest.(check bool) "oscillates" true
    (Propagation.compute_classified ~topo ~policy:(Propagation.policy_vector ~topo ~policy_of)
       classified
    = Propagation.Oscillating);
  Alcotest.(check bool) "sweeping in ASN order settles" true
    (Option.is_some (sweep ~topo ~policy_of ~own));
  let validity_of (r : Route.t) =
    List.assoc { Propagation.prefix = r.Route.prefix; origin = r.Route.origin } classified
  in
  let net = Data_plane.build ~topo ~policy_of ~validity_of (List.map fst classified) in
  Alcotest.(check (list string)) "oscillating prefixes" [ "10.0.0.0/16" ]
    (List.map V4.Prefix.to_string (Data_plane.oscillating net));
  List.iter
    (fun a ->
      Alcotest.(check bool) (Printf.sprintf "AS%d forwards nowhere" a) true
        (Data_plane.forwarding_entry net ~asn:a ~addr:(V4.Prefix.addr prefix) = None))
    (Topology.asns topo)

let () =
  Alcotest.run "bgp"
    [ ( "topology",
        [ Alcotest.test_case "links" `Quick test_topology_links;
          Alcotest.test_case "cycle rejection" `Quick test_topology_rejects_cycle ] );
      ( "propagation",
        [ Alcotest.test_case "reaches everyone" `Quick test_propagation_reaches_everyone;
          Alcotest.test_case "valley free" `Quick test_propagation_valley_free;
          Alcotest.test_case "prefers customer" `Quick test_propagation_prefers_customer;
          Alcotest.test_case "prefers shorter" `Quick test_propagation_prefers_shorter;
          Alcotest.test_case "drop invalid" `Quick test_drop_invalid_blocks;
          Alcotest.test_case "depref picks valid" `Quick test_depref_prefers_valid;
          QCheck_alcotest.to_alcotest prop_propagation_stable;
          Alcotest.test_case "dispute wheel oscillates" `Quick test_dispute_wheel ] );
      ( "data-plane",
        [ Alcotest.test_case "LPM forwarding" `Quick test_lpm_forwarding;
          Alcotest.test_case "no route" `Quick test_no_route;
          QCheck_alcotest.to_alcotest prop_incremental_equals_fresh;
          QCheck_alcotest.to_alcotest prop_lpm_index_equals_scan ] );
      ("hijack", [ Alcotest.test_case "validation" `Quick test_hijack_validation ]);
      ("topo-gen", [ Alcotest.test_case "generated topology" `Quick test_topo_gen ]);
      ("table-6", [ Alcotest.test_case "policy tradeoff" `Quick test_table6 ]) ]
