(* Internet-like AS graphs with power-law degree distributions.

   Real AS-relationship data (CAIDA) is not available offline, so we grow
   graphs the way the Internet grew: a clique of tier-1 providers, then
   preferential attachment — each new AS multihomes to providers chosen with
   probability proportional to their current degree (Barabasi-Albert), which
   yields the heavy-tailed degree distribution measured on the real AS graph.
   Lateral peerings are sprinkled among transit ASes, again degree-biased.

   Valley-freeness holds by construction: every customer-provider edge goes
   from an existing AS (provider) to the newly attached one (customer), so
   the provider relation is a DAG, and every AS has a provider chain ending
   in the tier-1 clique — a stub's announcement reaches the whole graph.

   Beyond generation, [of_topology] wraps any hand-built topology in the
   same metadata (roles, degrees, customer cones), so the fixed paper
   scenarios and the generated worlds share one analysis surface. *)

type role = Tier1 | Transit | Stub

type spec = {
  ases : int;            (* total AS count *)
  tier1 : int;           (* size of the fully peered top clique *)
  attach : int;          (* provider links per newly attached AS *)
  peer_fraction : float; (* lateral transit peerings, as a fraction of [ases] *)
  seed : int;
  first_asn : int;       (* ASNs are [first_asn .. first_asn + ases - 1] *)
}

let default_spec =
  { ases = 1000; tier1 = 5; attach = 2; peer_fraction = 0.05; seed = 11; first_asn = 1 }

type t = {
  topo : Topology.t;
  asn_of_index : int array;          (* generation (or sorted) order *)
  index_of_asn : (int, int) Hashtbl.t;
  roles : role array;
  degrees : int array;
  cones : int array;                 (* customer-cone size, self included *)
}

let topology t = t.topo

let index_exn t asn =
  match Hashtbl.find_opt t.index_of_asn asn with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown AS%d" asn)

let role t asn = t.roles.(index_exn t asn)
let degree t asn = t.degrees.(index_exn t asn)
let cone_size t asn = t.cones.(index_exn t asn)

let asns t = Array.to_list t.asn_of_index |> List.sort Int.compare
let size t = Array.length t.asn_of_index

let with_role t r =
  Array.to_list t.asn_of_index
  |> List.filter (fun asn -> t.roles.(index_exn t asn) = r)
  |> List.sort Int.compare

let tier1s t = with_role t Tier1
let transits t = with_role t Transit
let stubs t = with_role t Stub

(* ASNs by descending degree; ties break toward the lower ASN so the order
   is deterministic. *)
let by_degree t =
  Array.to_list t.asn_of_index
  |> List.sort (fun a b ->
         match Int.compare (degree t b) (degree t a) with
         | 0 -> Int.compare a b
         | c -> c)

type degree_stats = {
  d_max : int;
  d_median : int;
  d_mean : float;
}

let degree_stats t =
  let ds = Array.copy t.degrees in
  Array.sort Int.compare ds;
  let n = Array.length ds in
  if n = 0 then { d_max = 0; d_median = 0; d_mean = 0. }
  else
    { d_max = ds.(n - 1);
      d_median = ds.(n / 2);
      d_mean = float_of_int (Array.fold_left ( + ) 0 ds) /. float_of_int n }

(* --- shared metadata computation ---------------------------------------- *)

(* Customer cones via per-AS bitsets folded in reverse topological order of
   the provider DAG (customers before their providers): cone(a) = {a} union
   the cones of a's customers.  Bitsets make the union O(n/64) per edge, so
   the whole computation is O(edges * n / 64) — fine for thousands of ASes. *)
let compute_cones (topo : Topology.t) (asn_of_index : int array)
    (index_of_asn : (int, int) Hashtbl.t) : int array =
  let n = Array.length asn_of_index in
  let words = (n + 62) / 63 in
  let bits = Array.make_matrix n words 0 in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  (* Kahn order over customer edges: start from ASes with no customers *)
  let remaining = Array.make n 0 in
  Array.iteri
    (fun i asn -> remaining.(i) <- List.length (Topology.customers topo asn))
    asn_of_index;
  let queue = Queue.create () in
  Array.iteri (fun i r -> if r = 0 then Queue.push i queue) remaining;
  let cones = Array.make n 1 in
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr processed;
    let row = bits.(i) in
    row.(i / 63) <- row.(i / 63) lor (1 lsl (i mod 63));
    List.iter
      (fun c ->
        let ci = Hashtbl.find index_of_asn c in
        let crow = bits.(ci) in
        for w = 0 to words - 1 do
          row.(w) <- row.(w) lor crow.(w)
        done)
      (Topology.customers topo asn_of_index.(i));
    let count = ref 0 in
    for w = 0 to words - 1 do
      count := !count + popcount row.(w)
    done;
    cones.(i) <- !count;
    List.iter
      (fun p ->
        let pi = Hashtbl.find index_of_asn p in
        remaining.(pi) <- remaining.(pi) - 1;
        if remaining.(pi) = 0 then Queue.push pi queue)
      (Topology.providers topo asn_of_index.(i))
  done;
  if !processed <> n then invalid_arg "As_graph: provider relation is not a DAG";
  cones

let wrap ?(tier1 : int list option)
    (topo : Topology.t) (asn_of_index : int array) : t =
  let n = Array.length asn_of_index in
  let index_of_asn = Hashtbl.create (2 * n) in
  Array.iteri (fun i asn -> Hashtbl.replace index_of_asn asn i) asn_of_index;
  let degrees = Array.map (Topology.degree topo) asn_of_index in
  let cones = compute_cones topo asn_of_index index_of_asn in
  let is_tier1 =
    match tier1 with
    | Some l -> fun asn -> List.mem asn l
    | None -> fun asn -> Topology.providers topo asn = []
  in
  let roles =
    Array.map
      (fun asn ->
        if is_tier1 asn then Tier1
        else if Topology.customers topo asn = [] then Stub
        else Transit)
      asn_of_index
  in
  { topo; asn_of_index; index_of_asn; roles; degrees; cones }

let of_topology ?tier1 (topo : Topology.t) : t =
  wrap ?tier1 topo (Array.of_list (Topology.asns topo))

(* --- the power-law generator -------------------------------------------- *)

let generate (s : spec) : t =
  if s.tier1 < 1 then invalid_arg "As_graph.generate: tier1 must be positive";
  if s.ases < s.tier1 then invalid_arg "As_graph.generate: ases < tier1";
  if s.attach < 1 then invalid_arg "As_graph.generate: attach must be positive";
  if s.peer_fraction < 0. then invalid_arg "As_graph.generate: negative peer_fraction";
  let rng = Rpki_util.Rng.create s.seed in
  let topo = Topology.create () in
  let asn i = s.first_asn + i in
  let asn_of_index = Array.init s.ases asn in
  (* the degree-biased ball: every node appears once as a baseline and once
     per incident customer/provider edge end, so drawing uniformly from the
     ball is preferential attachment *)
  let ball =
    Array.make ((s.tier1 * s.tier1) + (2 * s.attach * s.ases) + s.ases + 16) 0
  in
  let ball_len = ref 0 in
  let push i =
    ball.(!ball_len) <- i;
    incr ball_len
  in
  (* tier-1 clique: full peer mesh *)
  for i = 0 to s.tier1 - 1 do
    Topology.add_as topo (asn i);
    push i;
    for j = i + 1 to s.tier1 - 1 do
      Topology.peer topo (asn i) (asn j)
    done
  done;
  (* growth: each new AS multihomes to [attach] distinct degree-biased
     providers among the ASes already present *)
  let chosen = Hashtbl.create 8 in
  for i = s.tier1 to s.ases - 1 do
    Hashtbl.reset chosen;
    let want = min s.attach i in
    let tries = ref 0 in
    while Hashtbl.length chosen < want do
      incr tries;
      let p =
        if !tries <= 64 * want then ball.(Rpki_util.Rng.int rng !ball_len)
        else Rpki_util.Rng.int rng i (* degenerate ball: fall back to uniform *)
      in
      if p < i && not (Hashtbl.mem chosen p) then Hashtbl.replace chosen p ()
    done;
    Hashtbl.iter
      (fun p () ->
        Topology.link topo ~provider:(asn p) ~customer:(asn i);
        push p;
        push i)
      chosen;
    push i (* baseline: every AS is attachable even at degree 0 extras *)
  done;
  (* lateral peerings among transit ASes, degree-biased on both ends *)
  let peer_links = int_of_float (s.peer_fraction *. float_of_int s.ases) in
  let links = ref 0 in
  let attempts = ref 0 in
  while !links < peer_links && !attempts < 64 * (peer_links + 1) do
    incr attempts;
    let a = ball.(Rpki_util.Rng.int rng !ball_len) in
    let b = ball.(Rpki_util.Rng.int rng !ball_len) in
    let aa = asn a and ab = asn b in
    let related =
      a = b
      || List.mem ab (Topology.peers topo aa)
      || List.mem ab (Topology.providers topo aa)
      || List.mem ab (Topology.customers topo aa)
    in
    (* peer only transit-to-transit: stubs buy transit, they do not peer *)
    let transit x = Topology.customers topo x <> [] in
    if (not related) && transit aa && transit ab then begin
      Topology.peer topo aa ab;
      incr links
    end
  done;
  wrap ~tier1:(List.init s.tier1 asn) topo asn_of_index

(* --- the tiered generator (the pre-world Topo_gen shape) ---------------- *)

(* Kept as a second front-end over the same machinery: fixed-depth hierarchy
   with uniform (not preferential) provider choice.  [Topo_gen.generate] is
   a thin wrapper over this. *)
let tiered ~tier1 ~tier2 ~stubs ~providers_per_tier2 ~providers_per_stub
    ~peer_fraction ~seed () : t =
  let rng = Rpki_util.Rng.create seed in
  let topo = Topology.create () in
  let tier1_asns = List.init tier1 (fun i -> 100 + i) in
  let tier2_asns = List.init tier2 (fun i -> 1000 + i) in
  let stub_asns = List.init stubs (fun i -> 10000 + i) in
  List.iter (Topology.add_as topo) tier1_asns;
  List.iteri
    (fun i a -> List.iteri (fun j b -> if i < j then Topology.peer topo a b) tier1_asns)
    tier1_asns;
  List.iter
    (fun t2 ->
      Rpki_util.Rng.shuffle rng tier1_asns
      |> List.filteri (fun i _ -> i < providers_per_tier2)
      |> List.iter (fun p -> Topology.link topo ~provider:p ~customer:t2))
    tier2_asns;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Rpki_util.Rng.float rng < peer_fraction then Topology.peer topo a b)
        tier2_asns)
    tier2_asns;
  List.iter
    (fun st ->
      Rpki_util.Rng.shuffle rng tier2_asns
      |> List.filteri (fun i _ -> i < providers_per_stub)
      |> List.iter (fun p -> Topology.link topo ~provider:p ~customer:st))
    stub_asns;
  let asn_of_index = Array.of_list (tier1_asns @ tier2_asns @ stub_asns) in
  wrap ~tier1:tier1_asns topo asn_of_index

let summary t =
  let st = degree_stats t in
  Printf.sprintf
    "%d ASes (%d tier-1, %d transit, %d stub), degrees max %d / median %d / mean %.1f"
    (size t)
    (List.length (tier1s t))
    (List.length (transits t))
    (List.length (stubs t))
    st.d_max st.d_median st.d_mean
