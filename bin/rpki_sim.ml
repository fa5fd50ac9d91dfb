(* rpki-sim: command-line driver for the misbehaving-authorities toolkit.

   Subcommands:
     show     — print the model RPKI hierarchy (Figure 2)
     validate — sync a relying party and list VRPs and issues
     ov       — classify a route against the model RPKI
     whack    — plan (and optionally execute) a targeted whack
     monitor  — run a manipulation and show what a monitor would report
     sim      — run the Section 6 closed-loop timeline
     grid     — print the Figure 5 validity grid
     transparency — run the split-view attack under gossiping vantages
     gossip   — partial-mesh overlays and Byzantine equivocating vantages
     soak     — long-run endurance: segmented persistence and eviction curves
     scale    — split-view detection on a generated internet-scale world *)

open Cmdliner
open Rpki_core
open Rpki_repo
open Rpki_ip
module Scenario = Rpki_sim.Scenario

(* --- shared arguments --- *)

let fig5_right =
  let doc = "Include Sprint's covering ROA (63.160.0.0/12-13, AS 1239), i.e. Figure 5 right." in
  Arg.(value & flag & info [ "fig5-right" ] ~doc)

let build_model ~right =
  let m = Model.build () in
  if right then ignore (Model.add_fig5_right_roa m ~now:1);
  m

let sync_model m =
  let rp = Model.relying_party m in
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe () in
  (r, r.Relying_party.index)

let overlay_conv =
  let parse s =
    match Gossip.Overlay.of_string s with
    | Some o -> Ok o
    | None ->
      Error (`Msg (Printf.sprintf "unknown overlay %S (want full|k:N|star:N|random:N)" s))
  in
  Arg.conv (parse, fun ppf o -> Format.pp_print_string ppf (Gossip.Overlay.to_string o))

let overlay_arg =
  Arg.(value & opt overlay_conv Gossip.Overlay.Full_mesh
       & info [ "overlay" ] ~docv:"SPEC"
           ~doc:"Gossip overlay: $(b,full) (every pair), $(b,k:N) (seeded k-regular \
                 ring+chords), $(b,star:N) (N monitor hubs), $(b,random:N) (fresh \
                 N-peer sample each round).")

exception Out_of_range of string

(* Out-of-range values are usage errors, exit 124 like malformed ones: run
   [k] only when every bound holds, and turn an [Out_of_range] it raises
   into the same error. *)
let within bounds k =
  match List.find_opt (fun (ok, _) -> not ok) bounds with
  | Some (_, why) -> `Error (true, why)
  | None -> ( try `Ok (k ()) with Out_of_range why -> `Error (true, why))

(* [Scenario.build] refuses a negative monitor count or more monitors than
   its source can seat; the count comes from the flags, so that is out of
   range too *)
let build_rig spec =
  try Scenario.build spec with Invalid_argument why -> raise (Out_of_range why)

(* --- show --- *)

let show_cmd =
  let run right =
    let m = build_model ~right in
    print_string (Model.render m)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the model RPKI hierarchy (Figure 2)")
    Term.(const run $ fig5_right)

(* --- validate --- *)

let validate_cmd =
  let run right =
    let m = build_model ~right in
    let result, _ = sync_model m in
    Printf.printf "VRPs (%d):\n" (List.length result.Relying_party.vrps);
    List.iter (fun v -> Printf.printf "  %s\n" (Vrp.to_string v)) result.Relying_party.vrps;
    Printf.printf "issues (%d):\n" (List.length result.Relying_party.issues);
    List.iter
      (fun (i : Relying_party.issue) ->
        Printf.printf "  [%s] %s %s: %s\n"
          (Validation.issue_kind_to_string i.Relying_party.kind)
          i.Relying_party.uri
          (Option.value i.Relying_party.filename ~default:"-")
          i.Relying_party.reason)
      result.Relying_party.issues;
    (match Relying_party.issue_counts result.Relying_party.issues with
    | [] -> ()
    | counts ->
      Printf.printf "issues by category:\n";
      List.iter
        (fun (kind, n) ->
          Printf.printf "  %-24s %d\n" (Validation.issue_kind_to_string kind) n)
        counts)
  in
  Cmd.v (Cmd.info "validate" ~doc:"Sync a relying party against the model RPKI")
    Term.(const run $ fig5_right)

(* --- ov --- *)

let prefix_arg =
  let parse s =
    match V4.Prefix.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "bad prefix %S (want e.g. 63.174.16.0/20)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (V4.Prefix.to_string p))

let ov_cmd =
  let prefix =
    Arg.(required & pos 0 (some prefix_arg) None & info [] ~docv:"PREFIX" ~doc:"Route prefix.")
  in
  let origin =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"ORIGIN-AS" ~doc:"Origin AS number.")
  in
  let run right prefix origin =
    let m = build_model ~right in
    let _, idx = sync_model m in
    let route = Route.make prefix origin in
    let state, matching, covering = Origin_validation.explain idx route in
    Printf.printf "%s -> %s\n" (Route.to_string route)
      (Origin_validation.state_to_string state);
    List.iter (fun v -> Printf.printf "  matching: %s\n" (Vrp.to_string v)) matching;
    List.iter (fun v -> Printf.printf "  covering: %s\n" (Vrp.to_string v)) covering
  in
  Cmd.v
    (Cmd.info "ov" ~doc:"Classify a route (origin validation) against the model RPKI")
    Term.(const run $ fig5_right $ prefix $ origin)

(* --- whack --- *)

let whack_cmd =
  let target =
    let doc = "Target: 20 = ROA (63.174.16.0/20, AS 17054); 22 = ROA (63.174.16.0/22, AS 7341)." in
    Arg.(value & opt int 20 & info [ "target" ] ~doc)
  in
  let execute =
    Arg.(value & flag & info [ "execute" ] ~doc:"Execute the plan and report collateral.")
  in
  let run target execute =
    within [ (target = 20 || target = 22, "--target must be 20 or 22") ] @@ fun () ->
    let m = Model.build () in
    let target_filename, target_vrps =
      if target = 20 then
        (m.Model.roa_target20, [ Vrp.make ~max_len:20 (V4.p "63.174.16.0/20") 17054 ])
      else (m.Model.roa_target22, [ Vrp.make ~max_len:22 (V4.p "63.174.16.0/22") 7341 ])
    in
    let plan =
      Rpki_attack.Whack.plan_targeted ~manipulator:m.Model.sprint ~target_issuer:"Continental"
        ~target_filename
    in
    print_string (Rpki_attack.Whack.describe plan);
    if execute then begin
      let rp = Model.relying_party m in
      let d, collateral =
        Rpki_attack.Assess.measure ~rp ~universe:m.Model.universe ~now:1 ~target:target_vrps
          (fun () -> ignore (Rpki_attack.Whack.execute ~manipulator:m.Model.sprint plan ~now:1))
      in
      Printf.printf "whacked: %s\ncollateral: %d\n"
        (String.concat ", " (List.map Vrp.to_string d.Rpki_attack.Assess.net_lost))
        (List.length collateral)
    end
  in
  Cmd.v
    (Cmd.info "whack" ~doc:"Plan a targeted grandchild whack (Section 3.1)")
    Term.(ret (const run $ target $ execute))

(* --- monitor --- *)

let monitor_cmd =
  let action =
    let doc = "Manipulation to observe: stealth-delete, revoke, shrink, mbb." in
    let actions =
      [ ("stealth-delete", `Stealth_delete); ("revoke", `Revoke); ("shrink", `Shrink);
        ("mbb", `Mbb) ]
    in
    Arg.(value & opt (enum actions) `Mbb & info [ "action" ] ~doc)
  in
  let run action =
    let m = Model.build () in
    let before = Rpki_monitor.Monitor.take ~now:1 m.Model.universe in
    (match action with
    | `Stealth_delete ->
      Authority.stealth_delete_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:2
    | `Revoke -> Authority.revoke_roa m.Model.continental ~filename:m.Model.roa_cb_25 ~now:2
    | (`Shrink | `Mbb) as action ->
      let target_filename =
        if action = `Shrink then m.Model.roa_target20 else m.Model.roa_target22
      in
      let plan =
        Rpki_attack.Whack.plan_targeted ~manipulator:m.Model.sprint ~target_issuer:"Continental"
          ~target_filename
      in
      ignore (Rpki_attack.Whack.execute ~manipulator:m.Model.sprint plan ~now:2));
    let after = Rpki_monitor.Monitor.take ~now:2 m.Model.universe in
    List.iter
      (fun a -> Format.printf "%a@." Rpki_monitor.Monitor.pp_alert a)
      (Rpki_monitor.Monitor.diff ~before ~after)
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Run a manipulation and print the monitor's alerts")
    Term.(const run $ action)

(* --- sim --- *)

let policy_arg =
  let parse = function
    | "drop" -> Ok Rpki_bgp.Policy.Drop_invalid
    | "depref" -> Ok Rpki_bgp.Policy.Depref_invalid
    | "ignore" -> Ok Rpki_bgp.Policy.Ignore_rpki
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (want drop|depref|ignore)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Rpki_bgp.Policy.to_string p))

let sim_cmd =
  let policy =
    Arg.(value & opt policy_arg Rpki_bgp.Policy.Drop_invalid
         & info [ "policy" ] ~doc:"Relying-party policy: drop, depref or ignore.")
  in
  let run policy =
    let rig, hist = Scenario.run_section6 { Scenario.section6 with policy } in
    List.iter (fun r -> Format.printf "%a@." Rpki_sim.Loop.pp_record r) hist;
    match Relying_party.last_result rig.Scenario.sim.Rpki_sim.Loop.rp with
    | None -> ()
    | Some result -> (
      match Relying_party.issue_counts result.Relying_party.issues with
      | [] -> ()
      | counts ->
        Printf.printf "final sync issues by category:\n";
        List.iter
          (fun (kind, n) ->
            Printf.printf "  %-24s %d\n" (Validation.issue_kind_to_string kind) n)
          counts)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run the Section 6 transient-fault timeline")
    Term.(const run $ policy)

(* --- faultmix --- *)

let faultmix_cmd =
  let rate =
    Arg.(value & opt float 0.2
         & info [ "rate" ] ~doc:"Per-authority per-tick fault probability, in [0,1].")
  in
  let ticks =
    Arg.(value & opt int 12 & info [ "ticks" ] ~doc:"Simulation length, in ticks.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Sampler seed.") in
  let unsafe =
    let parse = function
      | "accept" -> Ok Relying_party.Unsafe_accept
      | "warn" -> Ok Relying_party.Unsafe_warn
      | "reject" -> Ok Relying_party.Unsafe_reject
      | s -> Error (`Msg (Printf.sprintf "bad unsafe policy %S (accept|warn|reject)" s))
    in
    let print fmt p =
      Format.pp_print_string fmt (Relying_party.unsafe_policy_to_string p)
    in
    Arg.(value & opt (conv (parse, print)) Relying_party.Unsafe_warn
         & info [ "unsafe" ] ~doc:"Unsafe-VRP policy: accept, warn or reject.")
  in
  let run rate ticks seed unsafe =
    within [ (rate >= 0. && rate <= 1., "--rate must be in [0,1]") ] @@ fun () ->
    let rig =
      Scenario.build
        { Scenario.section6 with
          fetch_policy = Some { Relying_party.default_policy with Relying_party.unsafe };
          fault_mix = Some { Scenario.seed; rate; repair_after = None } }
    in
    let all_issues = ref [] in
    for now = 1 to ticks do
      let injections, r = Scenario.step rig ~now in
      List.iter
        (fun (inj : Fault_mix.injection) ->
          Printf.printf "t%d inject %s: %s\n" now
            (Fault_corpus.to_string inj.Fault_mix.inj_category)
            inj.Fault_mix.inj_description)
        injections;
      Format.printf "%a (unsafe %d)@." Rpki_sim.Loop.pp_record r
        r.Rpki_sim.Loop.unsafe_count;
      match Relying_party.last_result rig.Scenario.sim.Rpki_sim.Loop.rp with
      | Some result -> all_issues := result.Relying_party.issues @ !all_issues
      | None -> ()
    done;
    let engine = Option.get rig.Scenario.engine in
    Printf.printf "injected %d, repaired %d, still active %d\n"
      (Fault_mix.injected engine) (Fault_mix.repaired engine)
      (List.length (Fault_mix.active engine));
    (match Fault_mix.counts engine with
    | [] -> ()
    | counts ->
      Printf.printf "injections by category:\n";
      List.iter
        (fun (c, n) -> Printf.printf "  %-24s %d\n" (Fault_corpus.to_string c) n)
        counts);
    match Relying_party.issue_counts !all_issues with
    | [] -> ()
    | counts ->
      Printf.printf "issues by category (all ticks):\n";
      List.iter
        (fun (kind, n) ->
          Printf.printf "  %-24s %d\n" (Validation.issue_kind_to_string kind) n)
        counts
  in
  Cmd.v
    (Cmd.info "faultmix"
       ~doc:"Run the closed loop under corpus-weighted background faults")
    Term.(ret (const run $ rate $ ticks $ seed $ unsafe))

(* --- grid --- *)

let grid_cmd =
  let origin =
    Arg.(value & opt int 1239 & info [ "origin" ] ~doc:"Origin AS for the grid.")
  in
  let run right origin =
    let m = build_model ~right in
    let _, idx = sync_model m in
    List.iter
      (fun (s : Validity_grid.length_summary) ->
        Printf.printf "/%d: valid=%d invalid=%d unknown=%d\n" s.Validity_grid.len
          s.Validity_grid.valid s.Validity_grid.invalid s.Validity_grid.unknown)
      (Validity_grid.grid idx ~root:(V4.p "63.160.0.0/12") ~min_len:12 ~max_len:24 ~origin)
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Print the Figure 5 validity grid for an origin AS")
    Term.(const run $ fig5_right $ origin)

(* --- transparency --- *)

let transparency_cmd =
  let monitors =
    Arg.(value & opt int 2
         & info [ "monitors" ] ~doc:"Monitor vantages besides the victim (0-3; 0 = no gossip).")
  in
  let period =
    Arg.(value & opt int 1 & info [ "period" ] ~doc:"Gossip period in ticks.")
  in
  let grace =
    Arg.(value & opt int 4
         & info [ "grace" ] ~doc:"Victim's Suspenders-style VRP hold, in ticks.")
  in
  let overt =
    Arg.(value & flag
         & info [ "overt" ]
             ~doc:"Overt fork (keep the honest manifest) instead of a stealthy re-signed one.")
  in
  let vantages =
    Arg.(value & opt (some int) None
         & info [ "vantages" ] ~docv:"N"
             ~doc:"Total relying-party vantages (victim + N-1 monitors; monitors \
                   beyond the three named ones are synthesized).  Overrides \
                   $(b,--monitors).")
  in
  let no_valcache =
    Arg.(value & flag
         & info [ "no-valcache" ]
             ~doc:"Disable the shared cross-vantage validation cache: every \
                   vantage verifies every signature itself.")
  in
  let run monitors period grace overt vantages no_valcache overlay =
    let monitors = match vantages with Some n -> n - 1 | None -> monitors in
    within [] @@ fun () ->
    let sv =
      build_rig
        { Scenario.default with
          monitors; grace; gossip_period = period; valcache = not no_valcache; overlay }
    in
    let stealth =
      if overt then Rpki_attack.Split_view.Overt else Rpki_attack.Split_view.Stealthy
    in
    let attack_at = 3 in
    let { Scenario.attack; _ } = Scenario.run_split_view ~stealth ~attack_at ~ticks:10 sv in
    let history = Rpki_sim.Loop.history sv.Scenario.sim in
    List.iter
      (fun (r : Rpki_sim.Loop.tick_record) ->
        if r.Rpki_sim.Loop.time = attack_at then
          Printf.printf "t%d: %s\n" attack_at (Rpki_attack.Split_view.describe attack);
        Format.printf "%a@." Rpki_sim.Loop.pp_record r)
      history;
    let checks, saved =
      List.fold_left
        (fun (c, s) (r : Rpki_sim.Loop.tick_record) ->
          (c + r.Rpki_sim.Loop.sig_checks, s + r.Rpki_sim.Loop.sig_saved))
        (0, 0) history
    in
    Printf.printf "\nRSA verifications: %d executed, %d answered by the shared cache\n"
      checks saved;
    match Rpki_sim.Loop.gossip_mesh sv.Scenario.sim with
    | None -> print_endline "\nno gossip mesh: the fork goes undetected"
    | Some g ->
      let pulls, skipped, verifies, saved =
        List.fold_left
          (fun (p, s, v, m) (r : Rpki_sim.Loop.tick_record) ->
            match r.Rpki_sim.Loop.gossip_report with
            | None -> (p, s, v, m)
            | Some gr ->
              ( p + gr.Gossip.r_pulls, s + gr.Gossip.r_skipped,
                v + gr.Gossip.r_verifies, m + gr.Gossip.r_verifies_saved ))
          (0, 0, 0, 0) history
      in
      Printf.printf
        "gossip (%s overlay): %d pulls, %d skipped, %d STH verifies (+%d memoized)\n"
        (Gossip.Overlay.to_string (Gossip.overlay g)) pulls skipped verifies saved;
      print_endline "";
      List.iter
        (fun a ->
          Format.printf "%a@." Rpki_monitor.Monitor.pp_alert
            (List.hd (Rpki_monitor.Monitor.gossip_alerts [ a ])))
        (Rpki_repo.Gossip.alarms g)
  in
  Cmd.v
    (Cmd.info "transparency"
       ~doc:"Run a split-view (mirror world) attack under gossiping vantages")
    Term.(ret (const run $ monitors $ period $ grace $ overt $ vantages $ no_valcache
               $ overlay_arg))

(* --- gossip --- *)

let gossip_cmd =
  let vantages =
    Arg.(value & opt int 16
         & info [ "vantages" ] ~docv:"N"
             ~doc:"Total relying-party vantages (victim + N-1 monitors), at least 2.")
  in
  let period =
    Arg.(value & opt int 1 & info [ "period" ] ~doc:"Gossip period in ticks.")
  in
  let byzantine =
    Arg.(value & opt int 0
         & info [ "byzantine" ] ~docv:"F"
             ~doc:"F monitor vantages turn Byzantine: each serves the victim an \
                   equivocating shadow log signed with its real log key, and stays \
                   silent in gossip rounds.")
  in
  let ticks =
    Arg.(value & opt int 8
         & info [ "ticks" ]
             ~doc:"Ticks to run.  The split view runs from t1 — the victim's first \
                   sync — so its log is forked from birth and only an honest \
                   cross-check can catch it.")
  in
  let run n period f ticks overlay =
    within
      [ (n >= 2, "--vantages must be >= 2"); (f >= 0, "--byzantine must be >= 0");
        (ticks >= 1, "--ticks must be >= 1") ]
    @@ fun () ->
    (* from the victim's first sync: a victim with honest pre-attack history
       self-detects any mirrored shadow (its first-seen record conflicts
       with the shadow's delta), which would defeat the equivocators *)
    let attack_at = 1 in
    let sv =
      build_rig
        { Scenario.default with monitors = n - 1; gossip_period = period; overlay }
    in
    let byz =
      List.filteri
        (fun i _ -> i < f)
        (Rpki_util.Rng.shuffle (Rpki_util.Rng.create 0xb12a) sv.Scenario.monitor_names)
    in
    let equivocators = Scenario.equivocators sv byz in
    List.iter
      (fun eq -> Printf.printf "byzantine: %s\n" (Rpki_attack.Equivocator.describe eq))
      equivocators;
    Printf.printf "overlay %s over %d vantages, %d byzantine, gossip every %d tick(s)\n\n"
      (Gossip.Overlay.to_string overlay) n f period;
    let { Scenario.attack; honest_adjacent } =
      Scenario.run_split_view ~equivocators ~attack_at ~ticks sv
    in
    List.iter
      (fun (r : Rpki_sim.Loop.tick_record) ->
        let now = r.Rpki_sim.Loop.time in
        if now = attack_at then
          Printf.printf "t%d: %s\n" now (Rpki_attack.Split_view.describe attack);
        match r.Rpki_sim.Loop.gossip_report with
        | Some gr -> Format.printf "t%d %a@." now Gossip.pp_report gr
        | None -> ())
      (Rpki_sim.Loop.history sv.Scenario.sim);
    List.iter
      (fun eq ->
        Printf.printf "%s served the forked shadow %d time(s), the honest view %d\n"
          (Rpki_attack.Equivocator.name eq)
          (Rpki_attack.Equivocator.served_forked eq)
          (Rpki_attack.Equivocator.served_honest eq))
      equivocators;
    Printf.printf "victim honest-connected after the attack: %b\n" honest_adjacent;
    match Rpki_sim.Loop.first_fork_tick sv.Scenario.sim with
    | Some tk -> Printf.printf "fork detected at t%d (+%d rounds after the attack)\n" tk (tk - attack_at)
    | None ->
      Printf.printf "fork NOT detected%s\n"
        (if honest_adjacent then "" else " — the victim's every neighbor is byzantine")
  in
  Cmd.v
    (Cmd.info "gossip"
       ~doc:"Partial-mesh gossip overlays and Byzantine equivocating vantages")
    Term.(ret (const run $ vantages $ period $ byzantine $ ticks $ overlay_arg))

(* --- restart --- *)

let restart_cmd =
  let fault_arg =
    let parse = function
      | "none" -> Ok None
      | "torn" -> Ok (Some Rpki_persist.Disk.Torn_write)
      | "partial" -> Ok (Some Rpki_persist.Disk.Partial_flush)
      | "bitflip" -> Ok (Some (Rpki_persist.Disk.Bit_flip 12345))
      | "drop-rename" -> Ok (Some Rpki_persist.Disk.Drop_rename)
      | s ->
        Error
          (`Msg (Printf.sprintf "unknown fault %S (want none|torn|partial|bitflip|drop-rename)" s))
    in
    let print fmt = function
      | None -> Format.pp_print_string fmt "none"
      | Some f -> Format.pp_print_string fmt (Rpki_persist.Disk.fault_to_string f)
    in
    Arg.conv (parse, print)
  in
  let fault =
    Arg.(value & opt fault_arg None
         & info [ "fault" ]
             ~doc:"Disk fault armed on the victim's last pre-crash snapshot: \
                   none, torn, partial, bitflip or drop-rename.")
  in
  let no_persist =
    Arg.(value & flag
         & info [ "no-persist" ]
             ~doc:"Disable snapshots entirely — the fresh-start oracle a rollback \
                   adversary exploits.")
  in
  let restart_at =
    Arg.(value & opt int 6
         & info [ "restart-at" ]
             ~doc:"Tick the victim restarts on; after its t5 kill, so above 5.")
  in
  let evidence =
    Arg.(value & opt (some string) None
         & info [ "evidence" ] ~docv:"FILE"
             ~doc:"Export the first verified rollback alarm as a portable DER \
                   evidence bundle to $(docv).")
  in
  let verify =
    Arg.(value & opt (some non_dir_file) None
         & info [ "verify" ] ~docv:"FILE"
             ~doc:"Do not simulate: load the DER evidence bundle $(docv) and \
                   re-verify it offline under its embedded keys.")
  in
  let vantages =
    Arg.(value & opt (some int) None
         & info [ "vantages" ] ~docv:"N"
             ~doc:"Total relying-party vantages (victim + N-1 monitors; default 3).")
  in
  let no_valcache =
    Arg.(value & flag
         & info [ "no-valcache" ]
             ~doc:"Disable the shared cross-vantage validation cache.")
  in
  let run fault no_persist restart_at evidence verify vantages no_valcache =
    match verify with
    | Some file -> (
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let bytes = really_input_string ic n in
      close_in ic;
      match Evidence.verify bytes with
      | Ok alarm ->
        Printf.printf "VERIFIED: %s\n" (Gossip.describe_alarm alarm);
        print_endline
          "The bundle's two attested sides verify from scratch under its embedded\n\
           keys: genuine evidence, no trust in the exporter needed.  Whether to\n\
           trust those keys is yours to decide (compare fingerprints out-of-band).";
        `Ok ()
      | Error why ->
        Printf.printf "REJECTED: %s\n" why;
        exit 1)
    | None ->
      let monitors = match vantages with Some n -> n - 1 | None -> 2 in
      within
        [ (restart_at > 5, "--restart-at must be > 5: the victim is killed after t5");
          (fault = None || not no_persist, "--fault needs snapshots: drop --no-persist") ]
      @@ fun () ->
      let rig =
        build_rig
          { Scenario.default with
            persist = not no_persist; grace = 0; monitors; valcache = not no_valcache }
      in
      let { Scenario.plan; recovery } =
        Scenario.run_rollback ?disk_fault:fault ~restart_at ~ticks:(max 10 (restart_at + 3))
          rig
      in
      let t = rig.Scenario.sim in
      List.iter
        (fun (r : Rpki_sim.Loop.tick_record) ->
          let now = r.Rpki_sim.Loop.time in
          if now = 3 then
            Printf.printf "t3: authority revokes ROA (63.174.25.0/24, AS %d)\n"
              Model.as_continental;
          if now = restart_at then
            Printf.printf "t%d: victim restarts: %s\n" now
              (Relying_party.recovery_to_string recovery);
          Format.printf "%a@." Rpki_sim.Loop.pp_record r;
          List.iter
            (fun rg -> Printf.printf "  REGRESSION: %s\n" (Relying_party.regression_to_string rg))
            r.Rpki_sim.Loop.regressions;
          if now = 5 then
            Printf.printf "t5: victim killed; %s\n" (Rpki_attack.Rollback.describe plan))
        (Rpki_sim.Loop.history t);
      print_endline "";
      (match Rpki_sim.Loop.first_rollback_tick t with
      | Some tk -> Printf.printf "rollback detected at t%d\n" tk
      | None -> print_endline "rollback NOT detected (the fresh-start oracle)");
      match Rpki_sim.Loop.gossip_mesh t with
      | None -> ()
      | Some g -> (
        List.iter
          (fun a ->
            Format.printf "%a@." Rpki_monitor.Monitor.pp_alert
              (List.hd (Rpki_monitor.Monitor.gossip_alerts [ a ])))
          (Gossip.alarms g);
        match (evidence, Gossip.rollbacks g) with
        | None, _ -> ()
        | Some file, alarm :: _ -> (
          match Evidence.export ~key_of:(Gossip.key_of g) alarm with
          | Ok bytes ->
            let oc = open_out_bin file in
            output_string oc bytes;
            close_out oc;
            Printf.printf "wrote %d-byte evidence bundle to %s (re-check: rpki_sim restart --verify %s)\n"
              (String.length bytes) file file
          | Error why -> Printf.printf "evidence export failed: %s\n" why)
        | Some _, [] ->
          print_endline "no rollback alarm was raised; nothing to export")
  in
  Cmd.v
    (Cmd.info "restart"
       ~doc:"Crash and restart the victim under a rollback adversary; optionally \
             export or offline-verify portable evidence")
    Term.(ret (const run $ fault $ no_persist $ restart_at $ evidence $ verify $ vantages
               $ no_valcache))

(* --- rtr: the multiplexed serving plane --- *)

let rtr_cmd =
  let sessions =
    Arg.(value & opt int 256 & info [ "sessions" ] ~doc:"Router sessions to attach.")
  in
  let ticks =
    Arg.(value & opt int 12 & info [ "ticks" ] ~doc:"Publish/flush rounds to run.")
  in
  let churn =
    Arg.(value & opt int 16
         & info [ "churn" ] ~doc:"VRPs that change origin every round.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~doc:"Domains for the flush fan-out.")
  in
  let run sessions ticks churn domains =
    within
      [ (sessions >= 1, "--sessions must be >= 1"); (ticks >= 1, "--ticks must be >= 1");
        (churn >= 0, "--churn must be >= 0"); (domains >= 1, "--domains must be >= 1") ]
    @@ fun () ->
    let module Server = Rpki_rtr.Server in
    let universe = max 64 (4 * churn) in
    let set_at t =
      List.init universe (fun i ->
          let asn = if i < churn then 1000 + t else 100 + (i mod 50) in
          Vrp.make (V4.Prefix.make ((10 lsl 24) lor (i lsl 8)) 24) asn)
    in
    let server = Server.create () in
    let _ = List.init sessions (fun _ -> Server.attach server) in
    Printf.printf
      "%d sessions against one cache (%d VRPs, %d churned per round, %d domain%s)\n\n"
      sessions universe churn domains (if domains = 1 then "" else "s");
    for t = 0 to ticks - 1 do
      Server.publish server (set_at t);
      let rep = Server.flush ~domains server in
      Printf.printf
        "t%-3d serial %-4d notified %-5d delta %-5d reset %-4d skip %-5d %s\n" t
        rep.Server.fr_serial rep.Server.fr_notified rep.Server.fr_advanced
        (rep.Server.fr_resets) rep.Server.fr_skipped
        (if Server.all_synced server then "all-synced" else "DIVERGED")
    done;
    let st = Server.stats server in
    Printf.printf
      "\nserials %d, notify batches %d (%d coalesced)\n\
       encoded %d bytes in %d encodings (%d B/serial); replayed %d responses\n\
       sent %d bytes / received %d bytes across %d sessions\n"
      st.Server.serial_bumps st.Server.notify_batches st.Server.coalesced
      st.Server.bytes_encoded st.Server.encode_calls
      (st.Server.bytes_encoded / max 1 st.Server.serial_bumps)
      st.Server.replays st.Server.bytes_sent st.Server.bytes_received sessions
  in
  Cmd.v
    (Cmd.info "rtr"
       ~doc:"Fan one RTR cache out to many router sessions: encode-once deltas, \
             one batched serial-notify per round")
    Term.(ret (const run $ sessions $ ticks $ churn $ domains))

(* --- soak: long-run endurance --- *)

let soak_cmd =
  let ticks =
    Arg.(value & opt int 2000
         & info [ "ticks" ] ~doc:"Simulation length in ticks.")
  in
  let churn =
    Arg.(value & opt int 0
         & info [ "churn" ] ~doc:"Re-issue ARIN's subtree every N ticks (0 = no churn).")
  in
  let no_compact =
    Arg.(value & flag
         & info [ "no-compact" ] ~doc:"Never fold persistence chains into their base snapshot.")
  in
  let no_evict =
    Arg.(value & flag
         & info [ "no-evict" ] ~doc:"Disable epoch-based Valcache eviction at tick end.")
  in
  let full_snapshots =
    Arg.(value & flag
         & info [ "full-snapshots" ]
             ~doc:"Force O(history) full saves instead of O(delta) segments (the \
                   pre-segmentation baseline).")
  in
  let run ticks churn no_compact no_evict full_snapshots =
    within [ (ticks >= 1, "--ticks must be >= 1"); (churn >= 0, "--churn must be >= 0") ]
    @@ fun () ->
    let spec = Scenario.default_soak.Scenario.sk_spec in
    let spec =
      { spec with
        Scenario.compact_every = (if no_compact then 0 else spec.Scenario.compact_every);
        valcache_evict = not no_evict; save_full = full_snapshots }
    in
    Printf.printf
      "soak: %d ticks, churn every %s, %s saves, compaction %s, eviction %s\n\n"
      ticks
      (if churn = 0 then "never" else Printf.sprintf "%d ticks" churn)
      (if full_snapshots then "full-snapshot" else "segmented")
      (if spec.Scenario.compact_every = 0 then "off"
       else Printf.sprintf "every %d ticks" spec.Scenario.compact_every)
      (if no_evict then "off" else "on");
    let r =
      Scenario.run_soak
        ~config:
          { Scenario.sk_ticks = ticks; sk_churn_every = churn;
            sk_sample_every = max 1 (ticks / 10); sk_spec = spec }
        ()
    in
    Printf.printf
      "%6s %12s %10s %10s %9s %12s %8s %10s %9s\n"
      "tick" "live words" "snap B" "chain B" "segments" "save B" "log" "resident" "evicted";
    List.iter
      (fun (s : Scenario.soak_sample) ->
        let resident, evicted =
          match s.Scenario.so_residency with
          | None -> ("-", "-")
          | Some rs ->
            ( string_of_int (rs.Valcache.rs_verdicts + rs.Valcache.rs_outcomes),
              string_of_int (rs.Valcache.rs_verdicts_evicted + rs.Valcache.rs_outcomes_evicted) )
        in
        Printf.printf "%6d %12d %10d %10d %9d %12d %8d %10s %9s\n"
          s.Scenario.so_tick s.Scenario.so_live_words s.Scenario.so_snapshot_bytes
          s.Scenario.so_chain_bytes s.Scenario.so_segments s.Scenario.so_save_bytes
          s.Scenario.so_log_size resident evicted)
      r.Scenario.so_samples;
    Printf.printf "\n%d saves, %d bytes written, %.1f bytes/save\n"
      r.Scenario.so_saves r.Scenario.so_total_save_bytes r.Scenario.so_bytes_per_save
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run the long-run endurance soak: segmented persistence, Valcache \
             eviction and memory growth curves over thousands of ticks")
    Term.(ret (const run $ ticks $ churn $ no_compact $ no_evict $ full_snapshots))

(* --- scale: generated worlds --- *)

let scale_cmd =
  let module World = Rpki_world.Synthesis in
  let module Placement = Rpki_world.Placement in
  let module Loop = Rpki_sim.Loop in
  let ases =
    Arg.(value & opt int 1000
         & info [ "ases" ] ~doc:"Number of ASes in the generated topology.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let monitors =
    Arg.(value & opt int 3
         & info [ "monitors" ] ~doc:"Monitor vantages gossiping with the victim RP.")
  in
  let placement =
    let parse s =
      match Placement.policy_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown placement %S" s))
    in
    let print fmt p = Format.pp_print_string fmt (Placement.policy_to_string p) in
    Arg.(value & opt (conv (parse, print)) Placement.By_degree
         & info [ "placement" ]
             ~doc:"Vantage placement policy: degree, role, random or random:SEED.")
  in
  let ticks =
    Arg.(value & opt int 10 & info [ "ticks" ] ~doc:"Simulation length in ticks.")
  in
  let attack_at =
    Arg.(value & opt int 3
         & info [ "attack-at" ]
             ~doc:"Tick at which the split-view fork is applied (0 = no attack).")
  in
  let run ases seed monitors placement ticks attack_at =
    within
      [ (ases >= 8, "--ases must be >= 8"); (ticks >= 1, "--ticks must be >= 1") ]
    @@ fun () ->
    let spec =
      { World.default_spec with
        World.graph =
          { Rpki_bgp.As_graph.default_spec with Rpki_bgp.As_graph.ases; seed } }
    in
    let world = World.build spec in
    let rig =
      build_rig
        { Scenario.default with source = Scenario.World world; monitors; placement }
    in
    print_endline (World.summary world);
    Printf.printf "monitors (%s): %s\n\n"
      (Placement.policy_to_string placement)
      (String.concat ", " rig.Scenario.monitor_names);
    ignore (Scenario.run_split_view ~attack_at ~ticks rig);
    let sim = rig.Scenario.sim in
    List.iter
      (fun (r : Loop.tick_record) ->
        let now = r.Loop.time in
        if now = attack_at then
          Printf.printf "t%d: forking the victim CA's view (split-view attack)\n" now;
        Printf.printf "t%-3d vrps %-5d probe %s%s\n" now r.Loop.vrp_count
          (String.concat ","
             (List.map (fun (n, ok) -> Printf.sprintf "%s:%b" n ok) r.Loop.probe_results))
          (match r.Loop.gossip_report with
          | Some rep when rep.Gossip.r_alarms <> [] ->
            "  FORK: "
            ^ String.concat "; " (List.map Gossip.describe_alarm rep.Gossip.r_alarms)
          | _ -> ""))
      (Loop.history sim);
    match (attack_at > 0 && attack_at <= ticks, Loop.first_fork_tick sim) with
    | false, _ -> ()
    | true, Some tk ->
      Printf.printf "\nfork detected at t%d (latency %d ticks after the attack)\n" tk
        (tk - attack_at)
    | true, None -> Printf.printf "\nfork NOT detected within %d ticks\n" ticks
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Generate an internet-scale AS topology, synthesize an RPKI universe \
             onto it, and re-run the split-view detection scenario on the result")
    Term.(ret (const run $ ases $ seed $ monitors $ placement $ ticks $ attack_at))

let () =
  let doc = "the misbehaving-RPKI-authorities toolkit (HotNets'13 reproduction)" in
  let info = Cmd.info "rpki-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ show_cmd; validate_cmd; ov_cmd; whack_cmd; monitor_cmd; sim_cmd;
            faultmix_cmd; grid_cmd; transparency_cmd; gossip_cmd; restart_cmd; rtr_cmd;
            soak_cmd; scale_cmd ]))
