(* AS-level topology with Gao-Rexford business relationships.

   Customer-provider links form a DAG (enforced at insertion); peering links
   are symmetric.  This is the standard model used by the BGP security
   literature the paper builds on (e.g. Goldberg et al., SIGCOMM'10).

   Membership and cycle checks are O(1)/O(edges): the generated worlds build
   graphs of thousands of ASes, where the original list-based membership
   test made construction quadratic. *)

type rel = Customer | Provider | Peer

type t = {
  mutable asns : int list;               (* insertion order, newest first *)
  members : (int, unit) Hashtbl.t;       (* same set, O(1) membership *)
  providers : (int, int list) Hashtbl.t; (* asn -> its providers *)
  customers : (int, int list) Hashtbl.t; (* asn -> its customers *)
  peers : (int, int list) Hashtbl.t;     (* asn -> its peers *)
  mutable version : int;                 (* bumped on every mutation, so
                                            derived structures can memoize *)
}

let create () =
  { asns = []; members = Hashtbl.create 64; providers = Hashtbl.create 64;
    customers = Hashtbl.create 64; peers = Hashtbl.create 64; version = 0 }

let mem t asn = Hashtbl.mem t.members asn

let add_as t asn =
  if not (mem t asn) then begin
    Hashtbl.replace t.members asn ();
    t.asns <- asn :: t.asns;
    t.version <- t.version + 1
  end

let get tbl asn = Option.value (Hashtbl.find_opt tbl asn) ~default:[]

let providers t asn = get t.providers asn
let customers t asn = get t.customers asn
let peers t asn = get t.peers asn

let asns t = List.sort Int.compare t.asns

let version t = t.version

(* True when [target] is reachable from [from] by walking provider links —
   used to reject provider cycles.  The visited set keeps the walk linear in
   edges; providers in generated graphs are heavily shared, and the naive
   DFS revisits them exponentially often. *)
let reaches_via_providers t ~from ~target =
  let visited = Hashtbl.create 16 in
  let rec go from =
    from = target
    || (not (Hashtbl.mem visited from)
       && begin
            Hashtbl.add visited from ();
            List.exists go (providers t from)
          end)
  in
  go from

let link t ~provider ~customer =
  if provider = customer then invalid_arg "Topology.link: self link";
  if reaches_via_providers t ~from:provider ~target:customer then
    invalid_arg
      (Printf.sprintf "Topology.link: AS%d->AS%d would create a provider cycle" provider customer);
  add_as t provider;
  add_as t customer;
  if not (List.mem provider (providers t customer)) then begin
    Hashtbl.replace t.providers customer (provider :: providers t customer);
    Hashtbl.replace t.customers provider (customer :: customers t provider);
    t.version <- t.version + 1
  end

let peer t a b =
  if a = b then invalid_arg "Topology.peer: self peering";
  add_as t a;
  add_as t b;
  if not (List.mem b (peers t a)) then begin
    Hashtbl.replace t.peers a (b :: peers t a);
    Hashtbl.replace t.peers b (a :: peers t b);
    t.version <- t.version + 1
  end

(* Neighbours with the relationship *of the neighbour to [asn]*:
   (n, Customer) means n is a customer of asn. *)
let neighbours t asn =
  List.map (fun n -> (n, Customer)) (customers t asn)
  @ List.map (fun n -> (n, Peer)) (peers t asn)
  @ List.map (fun n -> (n, Provider)) (providers t asn)

let degree t asn =
  List.length (providers t asn) + List.length (customers t asn)
  + List.length (peers t asn)
