(* Synthesizing an RPKI universe onto a generated AS graph.

   The paper's model world (Figure 2) is four authorities over a fixed
   topology; this module builds the same kind of world at any size.  Given
   an {!Rpki_bgp.As_graph} the synthesis:

   - allocates address space proportionally to customer-cone size: a
     spanning tree of the provider DAG (every AS hangs off its
     largest-cone provider) is walked in preorder, handing each AS one /24
     out of 10.0.0.0/8 and each subtree a contiguous range — so an ISP's
     allocation covers exactly its customers', like RIR address delegation;

   - raises a CA hierarchy mirroring the provider hierarchy: one RIR-like
     trust anchor, a CA for every tier-1 and for every transit AS whose
     subtree is big enough ([ca_min_cone]), each certified for its subtree
     range, each publishing at a repository hosted in its own /24 — the
     Section 6 circularity (repository reachability depends on objects the
     repository serves) reproduced at scale;

   - issues ROAs for a configurable fraction of ASes ([roa_coverage] — the
     real RPKI covers only part of the routing table), each signed by the
     nearest ancestor CA; the chosen victim additionally gets a covering
     ROA from its CA's ASN (the provider-aggregate / Side Effect 6 shape),
     so suppressing the victim's own ROA turns its route invalid, not
     unknown.

   The fork target, victim and relying-party placement are chosen
   deterministically from the graph: the victim is the deepest stub, the
   relying party the best-connected other stub. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp

type spec = {
  graph : As_graph.spec;
  ca_min_cone : int;       (* transits with a subtree at least this big get CAs *)
  roa_coverage : float;    (* fraction of ASes whose /24 gets a ROA *)
  key_bits : int option;   (* None = Rsa.default_bits *)
  validity : int option;
  refresh_interval : int option;
}

let default_spec =
  { graph = As_graph.default_spec; ca_min_cone = 25; roa_coverage = 0.3;
    key_bits = None; validity = None; refresh_interval = None }

type world = {
  w_graph : As_graph.t;
  w_universe : Universe.t;
  w_root : Authority.t;                  (* the RIR-like trust anchor *)
  w_cas : (int * Authority.t) list;      (* ascending ASN *)
  w_prefixes : (int, Rpki_ip.V4.Prefix.t) Hashtbl.t;
  w_roas : (int, string) Hashtbl.t;      (* asn -> its own-ROA filename *)
  w_depth : (int, int) Hashtbl.t;        (* tree depth, tier-1 = 1 *)
  w_victim : int;
  w_victim_ca : Authority.t;
  w_victim_roa : string;                 (* the split-view / whack target *)
  w_rp_asn : int;                        (* where the primary relying party sits *)
}

let graph w = w.w_graph
let universe w = w.w_universe
let root w = w.w_root
let cas w = w.w_cas
let victim w = w.w_victim
let victim_ca w = w.w_victim_ca
let victim_roa w = w.w_victim_roa
let rp_asn w = w.w_rp_asn

let prefix_of w asn =
  match Hashtbl.find_opt w.w_prefixes asn with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Synthesis.prefix_of: unknown AS%d" asn)

let roa_of w asn = Hashtbl.find_opt w.w_roas asn

let depth_of w asn = Option.value (Hashtbl.find_opt w.w_depth asn) ~default:0

(* Address arithmetic: /24 number [k] inside 10.0.0.0/8.  Addr.V4.t is an
   int of the address bits. *)
let addr_of ~slot ~host : Rpki_ip.Addr.V4.t =
  (10 lsl 24) lor (slot lsl 8) lor (host land 0xff)

let host_addr w ~asn ~host =
  let p = prefix_of w asn in
  let base : int = Rpki_ip.V4.Prefix.addr p in
  (base land lnot 0xff) lor (host land 0xff)

(* The nearest ancestor CA (self included): every tier-1 has a CA, so the
   walk terminates. *)

let announcement_for w asn = { Propagation.prefix = prefix_of w asn; origin = asn }

(* Routes the scenarios need on the data plane: every repository host (the
   CA ASes and the trust anchor's host), the victim's prefix, and the
   relying party's own /24 (its gossip log endpoint lives there).  Kept
   deliberately small — the data plane computes one full RIB per announced
   prefix. *)
let base_announcements w =
  let hosts = List.map fst w.w_cas in
  let root_host = Pub_point.host_asn (Authority.pub w.w_root) in
  let wanted =
    (root_host :: hosts) @ [ w.w_victim; w.w_rp_asn ]
    |> List.sort_uniq Int.compare
  in
  List.map (announcement_for w) wanted

let build (spec : spec) : world =
  let now = Rtime.epoch in
  if spec.graph.As_graph.ases > 65536 then
    invalid_arg "Synthesis.build: more ASes than /24s in 10.0.0.0/8";
  if spec.roa_coverage < 0. || spec.roa_coverage > 1. then
    invalid_arg "Synthesis.build: roa_coverage out of [0,1]";
  let g = As_graph.generate spec.graph in
  let topo = As_graph.topology g in
  (* spanning tree: every non-tier-1 AS hangs off its heaviest provider *)
  let parent = Hashtbl.create 256 in
  let children = Hashtbl.create 256 in
  let tier1s = As_graph.tier1s g in
  List.iter
    (fun asn ->
      match Topology.providers topo asn with
      | [] -> ()
      | ps ->
        let best =
          List.fold_left
            (fun acc p ->
              match acc with
              | None -> Some p
              | Some q ->
                let cp = As_graph.cone_size g p and cq = As_graph.cone_size g q in
                if cp > cq || (cp = cq && p < q) then Some p else Some q)
            None ps
        in
        let p = Option.get best in
        Hashtbl.replace parent asn p;
        Hashtbl.replace children p
          (asn :: Option.value (Hashtbl.find_opt children p) ~default:[]))
    (As_graph.asns g);
  let children_of p =
    Option.value (Hashtbl.find_opt children p) ~default:[] |> List.sort Int.compare
  in
  (* preorder /24 allocation: each subtree gets a contiguous [lo, hi] slot
     range, each AS its own slot *)
  let slot = Hashtbl.create 256 in
  let range = Hashtbl.create 256 in (* asn -> (lo, hi) inclusive *)
  let depth = Hashtbl.create 256 in
  let next = ref 0 in
  let rec alloc asn d =
    Hashtbl.replace slot asn !next;
    Hashtbl.replace depth asn d;
    incr next;
    List.iter (fun c -> alloc c (d + 1)) (children_of asn);
    Hashtbl.replace range asn (Hashtbl.find slot asn, !next - 1)
  in
  List.iter (fun t1 -> alloc t1 1) tier1s;
  let prefixes = Hashtbl.create 256 in
  Hashtbl.iter
    (fun asn s ->
      Hashtbl.replace prefixes asn (Rpki_ip.V4.Prefix.make (addr_of ~slot:s ~host:0) 24))
    slot;
  let subtree_size asn =
    let lo, hi = Hashtbl.find range asn in
    hi - lo + 1
  in
  (* the trust anchor, hosted by the best-connected tier-1 *)
  let root_host = List.hd (List.filter (fun a -> List.mem a tier1s) (As_graph.by_degree g)) in
  let universe = Universe.create () in
  let key_bits = Option.value spec.key_bits ~default:Rpki_crypto.Rsa.default_bits in
  let validity = Option.value spec.validity ~default:Authority.default_validity in
  let refresh_interval =
    Option.value spec.refresh_interval ~default:Authority.default_refresh
  in
  (* CAs: every tier-1, plus transits with a big enough subtree, listed in
     preorder (so parents come first) with the ASN of the nearest CA above
     (None: the trust anchor) *)
  let is_ca asn =
    List.mem asn tier1s
    || (As_graph.role g asn = As_graph.Transit && subtree_size asn >= spec.ca_min_cone)
  in
  let plan = ref [] in
  let rec walk asn parent_ca =
    let parent_ca =
      if is_ca asn then begin
        plan := (asn, parent_ca) :: !plan;
        Some asn
      end
      else parent_ca
    in
    List.iter (fun c -> walk c parent_ca) (children_of asn)
  in
  List.iter (fun t1 -> walk t1 None) tier1s;
  let plan = List.rev !plan in
  let ca_name asn = Printf.sprintf "AS%d" asn in
  (* every key depends only on its owner's name: make them all up front, on
     every core, root first *)
  let keys =
    Rpki_util.Par.map
      (fun name -> Authority.make_keys ~name ~key_bits)
      (Array.of_list ("RIR" :: List.map (fun (asn, _) -> ca_name asn) plan))
  in
  let root =
    Authority.create_trust_anchor ~name:"RIR"
      ~resources:(Resources.of_v4_strings [ "10.0.0.0/8" ])
      ~uri:"rsync://rir.world/repo"
      ~addr:(addr_of ~slot:(Hashtbl.find slot root_host) ~host:10)
      ~host_asn:root_host ~now ~universe ~key_bits ~keys:keys.(0) ~validity ~refresh_interval ()
  in
  let made = Hashtbl.create 64 in
  List.iteri
    (fun i (asn, parent_ca) ->
      let lo, hi = Hashtbl.find range asn in
      let res =
        Resources.make
          ~v4:
            (Rpki_ip.V4.Set.of_range
               (Rpki_ip.V4.Range.make (addr_of ~slot:lo ~host:0) (addr_of ~slot:hi ~host:255)))
          ()
      in
      let parent_ca = Option.fold ~none:root ~some:(Hashtbl.find made) parent_ca in
      Hashtbl.replace made asn
        (Authority.create_child parent_ca ~name:(ca_name asn) ~resources:res
           ~uri:(Printf.sprintf "rsync://as%d.world/repo" asn)
           ~addr:(addr_of ~slot:(Hashtbl.find slot asn) ~host:10)
           ~host_asn:asn ~now ~universe ~key_bits ~keys:keys.(i + 1) ~validity
           ~refresh_interval ()))
    plan;
  let cas =
    List.map (fun (asn, _) -> (asn, Hashtbl.find made asn)) plan
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let nearest_ca asn =
    let rec go asn =
      match List.assoc_opt asn cas with
      | Some ca -> ca
      | None -> (
        match Hashtbl.find_opt parent asn with Some p -> go p | None -> root)
    in
    go asn
  in
  (* victim: the deepest stub (ties toward the lower ASN) *)
  let stubs = As_graph.stubs g in
  if stubs = [] then invalid_arg "Synthesis.build: world has no stubs";
  let victim =
    List.fold_left
      (fun acc s ->
        let d = Hashtbl.find depth s in
        match acc with
        | None -> Some (s, d)
        | Some (_, bd) when d > bd -> Some (s, d)
        | acc -> acc)
      None stubs
    |> Option.get |> fst
  in
  (* the relying party: the best-connected other stub (or any other AS) *)
  let rp_asn =
    match List.filter (fun a -> a <> victim && As_graph.role g a = As_graph.Stub)
            (As_graph.by_degree g) with
    | a :: _ -> a
    | [] -> List.hd (List.filter (fun a -> a <> victim) (As_graph.by_degree g))
  in
  (* ROAs: a deterministic [roa_coverage] sample, the victim always in *)
  let cov_rng = Rpki_util.Rng.create (spec.graph.As_graph.seed lxor 0x5eed) in
  let sampled =
    List.filter
      (fun asn -> asn = victim || Rpki_util.Rng.float cov_rng < spec.roa_coverage)
      (As_graph.asns g)
    |> List.map (fun asn -> (nearest_ca asn, asn))
  in
  let victim_ca = nearest_ca victim in
  let entry asn = [ Roa.entry (Hashtbl.find prefixes asn) ] in
  (* the covering aggregate: the CA's own ASN claims the victim's /24, so
     losing the victim's ROA leaves the route covered-but-invalid (Side
     Effect 6), not unknown-and-routable.  It goes last, as the last one
     issued. *)
  let cover = (Pub_point.host_asn (Authority.pub victim_ca), entry victim) in
  (* one batch per CA, its ASes in ascending order: a batch touches only its
     own authority and publication point, so the batches run on every core
     and come out byte-identical on any number *)
  let batches =
    List.filter_map
      (fun ca ->
        let own = List.filter_map (fun (c, asn) -> if c == ca then Some asn else None) sampled in
        let specs =
          List.map (fun asn -> (asn, entry asn)) own @ (if ca == victim_ca then [ cover ] else [])
        in
        if specs = [] then None else Some (ca, own, specs))
      (root :: List.map snd cas)
    |> Array.of_list
  in
  let issued =
    Rpki_util.Par.map (fun (ca, _, specs) -> Authority.issue_roas ca ~now specs) batches
  in
  let roas = Hashtbl.create 256 in
  Array.iteri
    (fun i (_, own, _) ->
      let files = Array.of_list issued.(i) in
      List.iteri (fun j asn -> Hashtbl.replace roas asn (fst files.(j))) own)
    batches;
  let victim_roa = Hashtbl.find roas victim in
  { w_graph = g; w_universe = universe; w_root = root; w_cas = cas;
    w_prefixes = prefixes; w_roas = roas; w_depth = depth;
    w_victim = victim; w_victim_ca = victim_ca; w_victim_roa = victim_roa;
    w_rp_asn = rp_asn }

let summary w =
  Printf.sprintf
    "%s; %d CAs (+1 TA), %d ROAs, victim AS%d (depth %d, CA %s), rp AS%d"
    (As_graph.summary w.w_graph)
    (List.length w.w_cas) (Hashtbl.length w.w_roas) w.w_victim
    (depth_of w w.w_victim)
    (Authority.name w.w_victim_ca)
    w.w_rp_asn
