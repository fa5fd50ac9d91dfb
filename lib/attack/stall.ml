(* The Stalloris-style stalling adversary (Hlavacek et al., USENIX Security
   2022, applied to this paper's misbehaving-authority setting).

   Where Whack manipulates repository *content*, Stall manipulates the
   *transport*: the adversary controls (or sits on the path to) targeted
   publication points and serves them at a trickle — each request completes,
   eventually, but only after [intensity] times the honest transfer time.
   Against a relying party with patient timeouts and eager retries, a single
   stalled point exhausts the whole sync budget; the rest of the RPKI goes
   unfetched, caches go stale, and once the cached objects' validity windows
   lapse the RP degrades toward no VRPs at all — an RPKI downgrade without
   touching a single signed object. *)

open Rpki_repo

type t = {
  targets : string list; (* publication-point URIs being throttled *)
  intensity : int;       (* transfer-time multiplier *)
}

let plan ~targets ~intensity =
  if intensity < 1 then invalid_arg "Stall.plan: intensity must be >= 1";
  if targets = [] then invalid_arg "Stall.plan: no targets";
  { targets = List.sort_uniq compare targets; intensity }

(* Target an authority's whole subtree: its publication point and every
   descendant's — the points a relying party must keep fresh for the
   victim's ROAs to stay validated. *)
let plan_against ~victim ~intensity =
  let uris = ref [ Pub_point.uri (Authority.pub victim) ] in
  Authority.iter_descendants victim ~f:(fun a ->
      uris := Pub_point.uri (Authority.pub a) :: !uris);
  plan ~targets:!uris ~intensity

let targets t = t.targets

let apply t transport =
  List.iter
    (fun uri -> Transport.set_fault transport ~uri (Transport.Stalling t.intensity))
    t.targets

(* End the campaign: only faults this plan installed are cleared, and only
   if still ours (an operator may have re-marked a point meanwhile). *)
let lift t transport =
  List.iter
    (fun uri ->
      match Transport.fault_of transport ~uri with
      | Transport.Stalling k when k = t.intensity -> Transport.clear_fault transport ~uri
      | _ -> ())
    t.targets
