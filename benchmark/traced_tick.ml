(* A traced replica of Rpki_sim.Loop.step.

   It makes the same public calls Loop.step makes, in the same order, on
   the loop's public record, and wraps each layer's calls in a span.  The
   twin-rig check (Workload.run_twin) asserts that it yields tick records
   identical to Loop.step; once the library has its own telemetry, this
   file should go and the spans should come from there.

   The helpers below (is_dead, store_for, install_hold, regression_uri)
   restate private helpers of loop.ml; they must change when those do. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
open Rpki_ip
module Loop = Rpki_sim.Loop
module Server = Rpki_rtr.Server
module Session = Rpki_rtr.Session

type span = { name : string; start : int64; stop : int64 }

let span_ms s = Int64.to_float (Int64.sub s.stop s.start) /. 1e6

(* Run [f], appending a span named [name] to [acc]. *)
let timed acc name f =
  let start = Harness.now_ns () in
  let v = f () in
  acc := { name; start; stop = Harness.now_ns () } :: !acc;
  v

let is_dead (t : Loop.t) name = List.mem name t.Loop.dead

let rtr_cache (t : Loop.t) = Server.cache t.Loop.rtr

let store_for (t : Loop.t) name =
  match t.Loop.disk with
  | None -> None
  | Some disk -> (
    match List.assoc_opt name t.Loop.stores with
    | Some s -> Some s
    | None ->
      let s = Rpki_persist.Store.create disk ~name in
      t.Loop.stores <- (name, s) :: t.Loop.stores;
      Some s)

let install_hold (t : Loop.t) ~uri =
  if not (List.mem_assoc uri t.Loop.held_uris) then begin
    let good = Option.value ~default:[] (List.assoc_opt uri t.Loop.point_good) in
    let current =
      if is_dead t (Relying_party.name t.Loop.rp) then []
      else Relying_party.point_vrps t.Loop.rp ~uri
    in
    let prefixes =
      List.sort_uniq compare (List.map (fun (v : Vrp.t) -> v.Vrp.prefix) (good @ current))
    in
    List.iter
      (fun prefix ->
        let pinned =
          List.filter (fun (v : Vrp.t) -> V4.Prefix.equal v.Vrp.prefix prefix) good
        in
        Server.hold t.Loop.rtr ~prefix ~vrps:pinned)
      prefixes;
    if prefixes <> [] then t.Loop.held_uris <- (uri, prefixes) :: t.Loop.held_uris
  end

let regression_uri = function
  | Relying_party.Serial_regression { rg_uri; _ }
  | Relying_party.Content_equivocation { rg_uri; _ } -> rg_uri

(* Layer span names; Workload aggregates them into the per-layer metrics. *)
let valcache = "valcache.tick"
let sync_primary = "sync.primary"
let sync_vantage = "sync.vantage"
let rtr_publish = "rtr.publish"
let ov_build = "ov.build"
let bgp_data_plane = "bgp.data_plane"
let bgp_probe = "bgp.probe"
let gossip_round = "gossip.round"
let gossip_verify_fork = "gossip.verify_fork"
let persist_save = "persist.save"
let persist_compact = "persist.compact"
let rtr_flush = "rtr.flush"

let step (t : Loop.t) ~now =
  let acc = ref [] in
  let timed name f = timed acc name f in
  Universe.refresh_mirrors t.Loop.universe;
  Universe.refresh_rrdp t.Loop.universe;
  timed valcache (fun () ->
      match t.Loop.valcache with
      | Some vc -> Valcache.begin_tick vc ~digest:(Valcache.universe_digest t.Loop.universe)
      | None -> ());
  let verifies_before = Rpki_crypto.Rsa.verification_count () in
  let primary_alive = not (is_dead t (Relying_party.name t.Loop.rp)) in
  let result =
    timed sync_primary (fun () ->
        if primary_alive then
          Some
            (Relying_party.sync t.Loop.rp ~now ~universe:t.Loop.universe
               ~transport:t.Loop.transport ~policy:t.Loop.fetch_policy
               ?valcache:t.Loop.valcache ())
        else None)
  in
  List.iter
    (fun (v : Gossip.vantage) ->
      if (not (v.Gossip.v_rp == t.Loop.rp)) && not (is_dead t v.Gossip.v_name) then
        timed sync_vantage (fun () ->
            ignore
              (Relying_party.sync v.Gossip.v_rp ~now ~universe:t.Loop.universe
                 ~transport:v.Gossip.v_transport ~policy:t.Loop.fetch_policy
                 ?valcache:t.Loop.valcache ())))
    t.Loop.vantages;
  let sig_checks = Rpki_crypto.Rsa.verification_count () - verifies_before in
  let sig_saved =
    match t.Loop.valcache with
    | Some vc -> (Valcache.tick_stats vc).Valcache.sig_saved
    | None -> 0
  in
  timed rtr_publish (fun () ->
      match result with
      | Some r ->
        let base =
          Vrp.apply_diff r.Relying_party.vrps (Vrp.invert_diff r.Relying_party.diff)
        in
        Server.publish_diff ~expect_base:(Vrp.fingerprint base) t.Loop.rtr
          r.Relying_party.diff;
        Server.set_data_age t.Loop.rtr (Relying_party.max_data_age r);
        Server.set_unsafe t.Loop.rtr (List.length r.Relying_party.unsafe_vrps)
      | None -> ());
  let regressions =
    match result with Some r -> r.Relying_party.regressions | None -> []
  in
  List.iter (fun rg -> install_hold t ~uri:(regression_uri rg)) regressions;
  let rtr_index =
    timed ov_build (fun () -> Origin_validation.build (Session.cache_vrps (rtr_cache t)))
  in
  let validity_of r = Origin_validation.classify rtr_index r in
  let net =
    timed bgp_data_plane (fun () ->
        Data_plane.build ~topo:t.Loop.topo ~policy_of:(fun _ -> t.Loop.policy) ~validity_of
          t.Loop.announcements)
  in
  t.Loop.net <- Some net;
  let probe_results =
    timed bgp_probe (fun () ->
        List.map
          (fun (p : Loop.probe) ->
            ( p.Loop.label,
              Data_plane.reaches net ~src:(Relying_party.asn t.Loop.rp) ~addr:p.Loop.addr
                ~expected:p.Loop.expected_origin ))
          t.Loop.probes)
  in
  let fetch_failures =
    match result with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (uri, st) ->
          match st with
          | Relying_party.Fetched | Relying_party.Fetched_mirror
          | Relying_party.Fetched_rrdp -> None
          | Relying_party.Stale_cache | Relying_party.Unavailable -> Some uri)
        r.Relying_party.fetches
  in
  let gossip_report =
    timed gossip_round (fun () ->
        match t.Loop.gossip with
        | Some g when now mod t.Loop.gossip_period = 0 ->
          Some (Gossip.round ~alive:(fun n -> not (is_dead t n)) g ~now)
        | _ -> None)
  in
  timed gossip_verify_fork (fun () ->
      match gossip_report with
      | None -> ()
      | Some rep ->
        let key_of vname =
          List.find_map
            (fun v ->
              if String.equal v.Gossip.v_name vname then
                Some (Relying_party.transparency_key v.Gossip.v_rp)
              else None)
            t.Loop.vantages
        in
        let primary_name = Relying_party.name t.Loop.rp in
        let honest_side = function
          | Gossip.Fork { left; right; _ } ->
            if String.equal left.Gossip.att_vantage primary_name then Some right
            else if String.equal right.Gossip.att_vantage primary_name then Some left
            else None
          | Gossip.Rollback { rb_earlier; _ } -> Some rb_earlier
          | _ -> None
        in
        List.iter
          (fun alarm ->
            match alarm with
            | Gossip.Fork { fork_uri = uri; _ } | Gossip.Rollback { rb_uri = uri; _ } ->
              if Gossip.verify_fork ~key_of alarm then begin
                (match honest_side alarm with
                | None -> ()
                | Some side -> (
                  let vrp_hash = side.Gossip.att_obs.Rpki_transparency.Log.ob_vrp_hash in
                  match Relying_party.rollback_last_good t.Loop.rp ~uri ~vrp_hash with
                  | Some vrps ->
                    t.Loop.point_good <-
                      (uri, vrps) :: List.remove_assoc uri t.Loop.point_good
                  | None -> ()));
                install_hold t ~uri
              end
            | Gossip.Inconsistent_heads _ | Gossip.Bad_head_signature _
            | Gossip.Bad_inclusion _ | Gossip.Log_reset _ -> ())
          rep.Gossip.r_alarms);
  (match result with
  | None -> ()
  | Some r ->
    let regressed = List.map regression_uri regressions in
    List.iter
      (fun (uri, _) ->
        if (not (List.mem_assoc uri t.Loop.held_uris)) && not (List.mem uri regressed) then
          t.Loop.point_good <-
            (uri, Relying_party.point_vrps t.Loop.rp ~uri)
            :: List.remove_assoc uri t.Loop.point_good)
      r.Relying_party.fetches);
  let persisting = Option.is_some t.Loop.disk in
  timed persist_save (fun () ->
      if persisting then begin
        let mode = if t.Loop.save_full then `Full else `Auto in
        if primary_alive then
          Option.iter
            (fun store ->
              ignore
                (Relying_party.save t.Loop.rp ~now ~mode
                   ~rtr_serial:(Session.cache_serial (rtr_cache t)) store))
            (store_for t (Relying_party.name t.Loop.rp));
        List.iter
          (fun (v : Gossip.vantage) ->
            if (not (v.Gossip.v_rp == t.Loop.rp)) && not (is_dead t v.Gossip.v_name) then
              Option.iter
                (fun store -> ignore (Relying_party.save v.Gossip.v_rp ~now ~mode store))
                (store_for t v.Gossip.v_name))
          t.Loop.vantages
      end);
  timed persist_compact (fun () ->
      if persisting && t.Loop.compact_every > 0 && now mod t.Loop.compact_every = 0 then
        List.iter
          (fun (_, store) -> ignore (Relying_party.compact_store store ~now))
          t.Loop.stores);
  timed rtr_flush (fun () -> ignore (Server.flush ~domains:t.Loop.rtr_domains t.Loop.rtr));
  let record =
    { Loop.time = now;
      vrp_count =
        (match result with
        | Some r -> List.length r.Relying_party.vrps
        | None -> List.length (Session.cache_vrps (rtr_cache t)));
      issue_count =
        (match result with Some r -> List.length r.Relying_party.issues | None -> 0);
      fetch_failures;
      probe_results;
      vrp_diff = (match result with Some r -> r.Relying_party.diff | None -> Vrp.empty_diff);
      rtr_serial = Session.cache_serial (rtr_cache t);
      points_reused =
        (match result with Some r -> r.Relying_party.points_reused | None -> 0);
      points_revalidated =
        (match result with Some r -> r.Relying_party.points_revalidated | None -> 0);
      sync_elapsed = (match result with Some r -> r.Relying_party.sync_elapsed | None -> 0);
      max_data_age = (match result with Some r -> Relying_party.max_data_age r | None -> 0);
      budget_exhausted =
        (match result with Some r -> r.Relying_party.budget_exhausted | None -> false);
      gossip_report;
      regressions;
      rtr_holds = List.length (Session.cache_holds (rtr_cache t));
      sig_checks;
      sig_saved;
      unsafe_count =
        (match result with Some r -> List.length r.Relying_party.unsafe_vrps | None -> 0) }
  in
  timed valcache (fun () ->
      match t.Loop.valcache with
      | Some vc when t.Loop.valcache_evict -> Valcache.end_tick vc ~now
      | _ -> ());
  if t.Loop.keep_history then t.Loop.history <- record :: t.Loop.history;
  (record, List.rev !acc)
