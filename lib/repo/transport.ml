(* The transport layer between a relying party and the repositories.

   PR 1 treated fetch as an instantaneous reachability-oracle call; this
   module makes the network explicit.  A transport answers one question —
   "what does it cost to pull this publication point right now?" — from two
   inputs:

   - a *latency oracle*, normally wired by the simulation layer to the BGP
     data plane (time proportional to the forwarding path the RP's previous
     sync produced; [None] when no working route exists).  This is the
     paper's Section 6 circularity expressed as time instead of a boolean;
   - per-point *fault state*, set by operators or adversaries: a repository
     can be healthy, slow (fixed added latency), stalling (a Stalloris-style
     trickle that multiplies transfer time, typically past any timeout), or
     hard-unreachable.

   Time is virtual and unit-free ("transport ticks"); the relying party's
   fetch policy spends them against per-point timeouts and a total sync
   budget.  A zero-latency, fault-free transport ([instant]) is
   behaviourally identical to the PR-1 oracle — the equivalence tests pin
   that down. *)

type fault =
  | Healthy
  | Slow of int        (* additive latency on every request *)
  | Stalling of int    (* trickle-served: multiplies transfer time *)
  | Unreachable        (* black-holed: no route at all *)
  | Refused            (* connection refused: the host answers, with a RST *)
  | Dns_failure        (* no address associated with name *)
  | Timing_out         (* connect timeout: every attempt outlives the budget *)
  | Redirect of string (* cross-origin redirect; RPs refuse to follow *)

type t = {
  mutable latency_of : Pub_point.t -> int option;
  faults : (string, fault) Hashtbl.t;
  views : (string, unit -> (string * string) list) Hashtbl.t;
  (* per-URI listing overrides: what THIS client is served instead of the
     point's published content — a split-view (mirror-world) authority or
     an on-path adversary discriminating by requester.  Timing is
     unaffected; only the payload forks. *)
  failure_cost : int; (* time burned learning that there is no route *)
}

let create ?(latency_of = fun _ -> Some 0) ?(failure_cost = 1) () =
  { latency_of; faults = Hashtbl.create 8; views = Hashtbl.create 4; failure_cost }

(* The PR-1 world: every request costs nothing and nothing is faulty. *)
let instant () = create ~failure_cost:0 ()

let of_oracle reachable =
  create ~latency_of:(fun pp -> if reachable pp then Some 0 else None) ()

let set_latency_of t f = t.latency_of <- f

let set_fault t ~uri fault =
  match fault with
  | Healthy -> Hashtbl.remove t.faults uri
  | _ -> Hashtbl.replace t.faults uri fault

let fault_of t ~uri = Option.value (Hashtbl.find_opt t.faults uri) ~default:Healthy
let clear_fault t ~uri = Hashtbl.remove t.faults uri
let clear_faults t = Hashtbl.reset t.faults

let faults t = Hashtbl.fold (fun uri f acc -> (uri, f) :: acc) t.faults []

let set_view t ~uri listing = Hashtbl.replace t.views uri listing
let clear_view t ~uri = Hashtbl.remove t.views uri
let view_of t ~uri = Hashtbl.find_opt t.views uri

(* One request against [point]: how long until the transfer completes?
   [`Ok dt] within the timeout, [`Stalled timeout] when the transfer would
   outlive it (the caller's time is spent either way), [`Unroutable dt]
   when no route exists or the host refuses — detected quickly. *)
let probe t ~(point : Pub_point.t) ~timeout =
  let uri = Pub_point.uri point in
  match t.latency_of point with
  | None -> `Unroutable (min t.failure_cost timeout)
  | Some base -> (
    match fault_of t ~uri with
    (* the corpus's fast failures all price alike — what differs is the
       attribution the relying party records (see [fault_of]) *)
    | Unreachable | Refused | Dns_failure | Redirect _ ->
      `Unroutable (min t.failure_cost timeout)
    | Timing_out -> `Stalled timeout
    | fault ->
      let dt =
        match fault with
        | Healthy | Unreachable | Refused | Dns_failure | Timing_out | Redirect _ -> base
        | Slow d -> base + d
        (* a stall multiplies the whole transfer; [base + 1] so that even a
           zero-latency link stalls once an adversary throttles it *)
        | Stalling k -> (base + 1) * k
      in
      if dt > timeout then `Stalled timeout else `Ok dt)

type reply =
  | Served of { files : (string * string) list; fp : string; elapsed : int }
  | Stalled of { elapsed : int }
  | Unroutable of { elapsed : int }

(* Fetch the point's current listing through the transport — or, when a
   split view is installed for the URI, whatever this client is being
   shown instead. *)
let fetch t ~(point : Pub_point.t) ~timeout =
  match probe t ~point ~timeout with
  | `Ok elapsed -> (
    match view_of t ~uri:(Pub_point.uri point) with
    | None ->
      Served { files = Pub_point.snapshot point; fp = Pub_point.fingerprint point; elapsed }
    | Some listing ->
      let files = listing () in
      Served { files; fp = Pub_point.fingerprint_of_listing files; elapsed })
  | `Stalled elapsed -> Stalled { elapsed }
  | `Unroutable elapsed -> Unroutable { elapsed }
