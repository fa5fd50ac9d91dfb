(* Partial-deployment modelling (Side Effect 5).

   "A new ROA can cause many routes to become invalid": if a large network
   issues a ROA for a covering prefix before its customers' subprefix ROAs
   exist, every customer route flips from unknown to invalid.  The paper
   points at Wählisch et al.'s measurement of exactly this in the production
   RPKI.

   The model works at the VRP level (no crypto needed): providers hold large
   prefixes and announce them; customers announce subprefixes with their own
   origin ASes; adoption is a fraction of customers with ROAs.  We then
   sweep the customer-adoption fraction and count validity flips when the
   providers issue their covering ROAs. *)

open Rpki_core
open Rpki_ip

type customer = { route : Route.t; has_roa : bool }

type provider = {
  prefix : V4.Prefix.t;
  asn : int;
  customers : customer list;
}

type world = { providers : provider list }

type spec = {
  n_providers : int;
  customers_per_provider : int;
  customer_adoption : float; (* fraction of customers with their own ROA *)
  seed : int;
}

let default_spec = { n_providers = 50; customers_per_provider = 25; customer_adoption = 0.5; seed = 3 }

let generate (spec : spec) =
  let rng = Rpki_util.Rng.create spec.seed in
  let providers =
    List.init spec.n_providers (fun i ->
        let prefix = V4.Prefix.make ((16 + (i mod 200)) lsl 24) 12 in
        let asn = 2000 + i in
        let customers =
          List.init spec.customers_per_provider (fun j ->
              (* distinct /20 subprefixes *)
              let sub = V4.Prefix.make (V4.Prefix.addr prefix + (j lsl 12)) 20 in
              { route = Route.make sub (30000 + (i * 100) + j);
                has_roa = Rpki_util.Rng.float rng < spec.customer_adoption })
        in
        { prefix; asn; customers })
  in
  { providers }

let routes world =
  List.concat_map
    (fun p -> Route.make p.prefix p.asn :: List.map (fun c -> c.route) p.customers)
    world.providers

(* VRPs before/after the providers issue covering ROAs. *)
let customer_vrps world =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun c -> if c.has_roa then Some (Vrp.make c.route.Route.prefix c.route.Route.origin) else None)
        p.customers)
    world.providers

let provider_vrps world =
  List.map (fun p -> Vrp.make ~max_len:(V4.Prefix.len p.prefix) p.prefix p.asn) world.providers

type counts = { valid : int; invalid : int; unknown : int }

let count_states idx routes =
  List.fold_left
    (fun acc r ->
      match Origin_validation.classify idx r with
      | Origin_validation.Valid -> { acc with valid = acc.valid + 1 }
      | Origin_validation.Invalid -> { acc with invalid = acc.invalid + 1 }
      | Origin_validation.Unknown -> { acc with unknown = acc.unknown + 1 })
    { valid = 0; invalid = 0; unknown = 0 }
    routes

type row = {
  adoption : float;
  total_routes : int;
  before : counts; (* only customer ROAs exist *)
  after : counts;  (* providers issued covering ROAs *)
  flips : int;     (* routes that went unknown -> invalid *)
}

let run_once spec =
  let world = generate spec in
  let rs = routes world in
  let before_idx = Origin_validation.build (customer_vrps world) in
  let after_idx = Origin_validation.build (customer_vrps world @ provider_vrps world) in
  let before = count_states before_idx rs in
  let after = count_states after_idx rs in
  let flips =
    List.length
      (List.filter
         (fun r ->
           Origin_validation.equal_state (Origin_validation.classify before_idx r) Unknown
           && Origin_validation.equal_state (Origin_validation.classify after_idx r) Invalid)
         rs)
  in
  { adoption = spec.customer_adoption;
    total_routes = List.length rs;
    before;
    after;
    flips }

(* The Side Effect 5 sweep: flips as a function of customer adoption. *)
let sweep () =
  List.map
    (fun f -> run_once { default_spec with customer_adoption = f })
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ]

(* The ordering ablation: issuing subprefix ROAs first leaves no window of
   invalidity, issuing the covering ROA first opens one (the paper's
   deployment rule). *)
type ordering = Cover_first | Subprefixes_first

let invalid_window ~spec ordering =
  let world = generate { spec with customer_adoption = 1.0 } in
  let rs = routes world in
  let mid_vrps =
    match ordering with
    | Cover_first -> provider_vrps world
    | Subprefixes_first -> customer_vrps world
  in
  let mid = count_states (Origin_validation.build mid_vrps) rs in
  mid.invalid
