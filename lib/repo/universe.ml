(* The set of all publication points, addressable by URI.

   This stands in for "repositories distributed throughout the Internet":
   the relying party resolves an rsync URI here, subject to a caller-supplied
   reachability oracle (the simulation layer wires that oracle to the BGP
   data plane, closing the paper's Figure 1 loop). *)

type rrdp_endpoint = {
  ep_point : Pub_point.t; (* addressing only: uri / addr / host AS *)
  ep_server : Rrdp.server;
}

type t = {
  mutable points : Pub_point.t list;        (* newest first *)
  index : (string, Pub_point.t) Hashtbl.t;  (* the same points by URI: every
                                               fetch looks one up *)
  mutable mirrors : (string * Pub_point.t) list; (* primary uri -> mirror point *)
  mutable rrdp : (string * rrdp_endpoint) list;  (* primary uri -> RRDP service *)
}

let create () = { points = []; index = Hashtbl.create 64; mirrors = []; rrdp = [] }

let add t (p : Pub_point.t) =
  let uri = Pub_point.uri p in
  if Hashtbl.mem t.index uri then
    invalid_arg (Printf.sprintf "Universe.add: duplicate uri %s" uri);
  Hashtbl.replace t.index uri p;
  t.points <- p :: t.points

let find t uri = Hashtbl.find_opt t.index uri
let points t = t.points

(* Register a mirror of [of_uri] (draft-ietf-sidr-multiple-publication-points:
   the same objects served from a second location, ideally hosted outside
   the address space the objects themselves validate).  The mirror must be
   refreshed explicitly — mirrors lag reality, like real ones. *)
let add_mirror t ~of_uri (mirror : Pub_point.t) =
  if not (Hashtbl.mem t.index of_uri) then
    invalid_arg (Printf.sprintf "Universe.add_mirror: no primary at %s" of_uri);
  t.mirrors <- (of_uri, mirror) :: t.mirrors

let mirrors_of t uri = List.filter_map (fun (u, m) -> if u = uri then Some m else None) t.mirrors

(* Copy the primary's current files onto each of its mirrors. *)
let refresh_mirrors t =
  List.iter
    (fun (uri, (mirror : Pub_point.t)) ->
      match find t uri with
      | None -> ()
      | Some primary -> Pub_point.replace_files mirror (Pub_point.snapshot primary))
    t.mirrors

(* Register an RRDP service for [of_uri] (RFC 8182): the same objects,
   delivered as serial-numbered deltas from a notification endpoint.  The
   endpoint point carries only addressing (its own URI, host address and
   AS) — which is what lets a transport price and fault it independently
   of the rsync primary. *)
let add_rrdp t ~of_uri (endpoint : Pub_point.t) =
  match find t of_uri with
  | None -> invalid_arg (Printf.sprintf "Universe.add_rrdp: no primary at %s" of_uri)
  | Some primary ->
    if List.mem_assoc of_uri t.rrdp then
      invalid_arg (Printf.sprintf "Universe.add_rrdp: duplicate RRDP service for %s" of_uri);
    let server = Rrdp.create primary in
    ignore (Rrdp.publish_now server);
    t.rrdp <- (of_uri, { ep_point = endpoint; ep_server = server }) :: t.rrdp

let rrdp_of t uri =
  Option.map (fun ep -> (ep.ep_point, ep.ep_server)) (List.assoc_opt uri t.rrdp)

(* Version each RRDP server against its primary's current content (the
   repository-side publication pipeline running; RRDP lags until then,
   like mirrors do). *)
let refresh_rrdp t =
  List.iter (fun (_, ep) -> ignore (Rrdp.publish_now ep.ep_server)) t.rrdp

let find_exn t uri =
  match find t uri with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Universe.find_exn: no publication point at %s" uri)
