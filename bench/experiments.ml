(* The experiments: every table and figure in the paper, and the
   extensions beyond it.

   Each experiment prints the same rows/series the paper reports (see
   EXPERIMENTS.md for the paper-vs-measured record) and returns the JSON
   value it exports, if any.  [~quick] shrinks it to a smoke pass.  The
   registry in main.ml names and titles them.  Everything is
   deterministic; no state is shared between experiments. *)

open Rpki_core
open Rpki_repo
open Rpki_bgp
open Rpki_attack
open Rpki_ip
module Table = Rpki_util.Table
module Scenario = Rpki_sim.Scenario

exception Check_failed of string

(* An in-bench assertion: unless [cond] holds, fail the experiment with the
   formatted message (the driver prefixes the experiment's name). *)
let check cond fmt =
  if cond then Printf.ifprintf () fmt
  else Printf.ksprintf (fun msg -> raise (Check_failed msg)) fmt

let last l = List.nth l (List.length l - 1)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let up_down ok = if ok then "up" else "DOWN"

(* Whether the tick's probe of Continental's repository got through. *)
let continental_up (r : Rpki_sim.Loop.tick_record) =
  List.assoc "continental-repo" r.Rpki_sim.Loop.probe_results

(* Run [f] and return its result with the elapsed wall-clock time in ms,
   read from bechamel's monotonic clock (not process CPU time, which
   excludes waits and sums over Domains). *)
let time_ms f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6)

(* The loop's first fork alarm as an exported evidence bundle; "" when
   there is no mesh, no fork or the export fails. *)
let first_fork_evidence sim =
  match Rpki_sim.Loop.gossip_mesh sim with
  | None -> ""
  | Some g -> (
    match Gossip.forks g with
    | [] -> ""
    | alarm :: _ -> Result.value (Evidence.export ~key_of:(Gossip.key_of g) alarm) ~default:"")

(* ------------------------------------------------------------------ *)
(* Figure 2: the model RPKI                                            *)
(* ------------------------------------------------------------------ *)

let fig2 ~quick:_ =
  let m = Model.build () in
  print_string (Model.render m);
  let rp = Model.relying_party m in
  let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe () in
  Printf.printf "\nrelying party sync: %d valid ROAs (VRPs), %d issues, CAs: %s\n"
    (List.length r.Relying_party.vrps)
    (List.length r.Relying_party.issues)
    (String.concat ", " r.Relying_party.cas_validated);
  List.iter (fun v -> Printf.printf "  %s\n" (Vrp.to_string v)) r.Relying_party.vrps;
  None

(* ------------------------------------------------------------------ *)
(* Figure 3: targeted whacking                                         *)
(* ------------------------------------------------------------------ *)

let run_whack ~label ~target_filename ~target_vrps =
  Printf.printf "--- %s ---\n" label;
  let m = Model.build () in
  let rp = Model.relying_party m in
  let plan =
    Whack.plan_targeted ~manipulator:m.Model.sprint ~target_issuer:"Continental" ~target_filename
  in
  print_string (Whack.describe plan);
  let d, collateral =
    Assess.measure ~rp ~universe:m.Model.universe ~now:1 ~target:target_vrps (fun () ->
        ignore (Whack.execute ~manipulator:m.Model.sprint plan ~now:1))
  in
  Printf.printf "  VRPs whacked : %s\n"
    (String.concat ", " (List.map Vrp.to_string d.Assess.net_lost));
  Printf.printf "  collateral   : %d%s\n\n" (List.length collateral)
    (if collateral = [] then " (zero, as the paper claims)" else "")

let fig3 ~quick:_ =
  run_whack ~label:"clean whack of (63.174.16.0/20, AS 17054)"
    ~target_filename:(Model.build ()).Model.roa_target20
    ~target_vrps:[ Vrp.make ~max_len:20 (V4.p "63.174.16.0/20") 17054 ];
  run_whack ~label:"make-before-break whack of (63.174.16.0/22, AS 7341)"
    ~target_filename:(Model.build ()).Model.roa_target22
    ~target_vrps:[ Vrp.make ~max_len:22 (V4.p "63.174.16.0/22") 7341 ];
  (* the blunt alternative the paper contrasts with *)
  Printf.printf "--- blunt alternative: revoke Continental's RC outright ---\n";
  let m = Model.build () in
  let rp = Model.relying_party m in
  let d, collateral =
    Assess.measure ~rp ~universe:m.Model.universe ~now:1
      ~target:[ Vrp.make ~max_len:20 (V4.p "63.174.16.0/20") 17054 ]
      (fun () -> Authority.revoke_child m.Model.sprint m.Model.continental ~now:1)
  in
  Printf.printf "  VRPs whacked : %d (target + %d collateral)\n"
    (List.length d.Assess.net_lost) (List.length collateral);
  List.iter (fun v -> Printf.printf "    %s\n" (Vrp.to_string v)) d.Assess.net_lost;
  None

(* ------------------------------------------------------------------ *)
(* Table 4: cross-jurisdiction certification                           *)
(* ------------------------------------------------------------------ *)

let tab4 ~quick:_ =
  let records = Rpki_juris.Dataset.paper_fixture () in
  let t = Table.create [ "Holder"; "RC"; "RIR"; "Countries (out of jurisdiction)" ] in
  List.iter
    (fun (e : Rpki_juris.Analysis.rc_exposure) ->
      Table.add_row t
        [ e.Rpki_juris.Analysis.record.Rpki_juris.Dataset.holder;
          V4.Prefix.to_string e.Rpki_juris.Analysis.record.Rpki_juris.Dataset.rc_prefix;
          Rpki_juris.Country.rir_to_string
            e.Rpki_juris.Analysis.record.Rpki_juris.Dataset.parent_rir;
          String.concat "," e.Rpki_juris.Analysis.foreign_countries ])
    (Rpki_juris.Analysis.cross_jurisdiction_rcs records);
  Table.print t;
  Printf.printf "\nRIR reach beyond its own jurisdiction:\n";
  List.iter
    (fun (rir, reach) ->
      if reach <> [] then
        Printf.printf "  %-8s can whack ROAs in: %s\n"
          (Rpki_juris.Country.rir_to_string rir)
          (String.concat "," reach))
    (Rpki_juris.Analysis.rir_reach records);
  Printf.printf "\nSynthetic deployment sweep (cross-border certification frequency):\n";
  let t2 =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "cross-border customer frac"; "RCs"; "crossing"; "mean foreign countries" ]
  in
  List.iter
    (fun f ->
      let s =
        Rpki_juris.Analysis.stats
          (Rpki_juris.Dataset.synthetic
             { Rpki_juris.Dataset.default_synthetic with Rpki_juris.Dataset.cross_border_fraction = f })
      in
      Table.add_row t2
        [ Printf.sprintf "%.2f" f; string_of_int s.Rpki_juris.Analysis.total_rcs;
          string_of_int s.Rpki_juris.Analysis.cross_border_rcs;
          Printf.sprintf "%.2f" s.Rpki_juris.Analysis.mean_foreign_countries ])
    [ 0.0; 0.05; 0.15; 0.3; 0.5 ];
  Table.print t2;
  None

(* ------------------------------------------------------------------ *)
(* Figure 5: route validity for 63.160.0.0/12 and its subprefixes      *)
(* ------------------------------------------------------------------ *)

let fig5_samples idx label =
  Printf.printf "%s\n" label;
  let routes =
    [ Route.make (V4.p "63.160.0.0/12") 1239;
      Route.make (V4.p "63.160.0.0/13") 1239;
      Route.make (V4.p "63.161.0.0/16") 1239;
      Route.make (V4.p "63.161.5.0/24") 1239;
      Route.make (V4.p "63.168.0.0/16") 1239;
      Route.make (V4.p "63.170.0.0/16") 19429;
      Route.make (V4.p "63.174.16.0/20") 17054;
      Route.make (V4.p "63.174.16.0/22") 7341;
      Route.make (V4.p "63.174.17.0/24") 17054;
      Route.make (V4.p "63.174.25.0/24") 17054;
      Route.make (V4.p "63.172.0.0/16") 7018 ]
  in
  let t = Table.create [ "route"; "state"; "why" ] in
  List.iter
    (fun (route, state, why) ->
      Table.add_row t [ Route.to_string route; Origin_validation.state_to_string state; why ])
    (Validity_grid.sample_rows idx routes);
  Table.print t

(* The figure itself: the subtree of 63.160.0.0/12 down to /18, one row per
   length, one character per subprefix (V valid, i invalid, . unknown) for
   the given origin. *)
let fig5_tree idx ~origin label =
  Printf.printf "\n%s — validity tree for origin AS%d (V=valid, i=invalid, .=unknown):\n" label origin;
  let root = V4.p "63.160.0.0/12" in
  for len = 12 to 18 do
    let n = 1 lsl (len - 12) in
    let row =
      String.init n (fun i ->
          let prefix = V4.Prefix.make (V4.Prefix.addr root + (i lsl (32 - len))) len in
          match Origin_validation.classify idx (Route.make prefix origin) with
          | Origin_validation.Valid -> 'V'
          | Origin_validation.Invalid -> 'i'
          | Origin_validation.Unknown -> '.')
    in
    Printf.printf "  /%d %s%s\n" len (String.make (64 - n) ' ') row
  done

let fig5_grid idx ~origin label =
  Printf.printf "\n%s (origin AS%d): subprefix counts by length\n" label origin;
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "len"; "valid"; "invalid"; "unknown" ]
  in
  List.iter
    (fun (s : Validity_grid.length_summary) ->
      Table.add_row t
        [ Printf.sprintf "/%d" s.Validity_grid.len; string_of_int s.Validity_grid.valid;
          string_of_int s.Validity_grid.invalid; string_of_int s.Validity_grid.unknown ])
    (Validity_grid.grid idx ~root:(V4.p "63.160.0.0/12") ~min_len:12 ~max_len:24 ~origin);
  Table.print t

let fig5 ~quick:_ =
  let m = Model.build () in
  let rp = Model.relying_party m in
  let left = (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ()).Relying_party.index in
  fig5_samples left "LEFT: the RPKI of Figure 2";
  fig5_tree left ~origin:17054 "LEFT";
  fig5_grid left ~origin:1239 "LEFT";
  (* add the covering ROA and recompute *)
  let _ = Model.add_fig5_right_roa m ~now:1 in
  let right = (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ()).Relying_party.index in
  Printf.printf "\n";
  fig5_samples right "RIGHT: after Sprint issues (63.160.0.0/12-13, AS 1239)";
  fig5_tree right ~origin:17054 "RIGHT";
  fig5_grid right ~origin:1239 "RIGHT";
  (* Side Effect 5 on the figure itself: how many /16..24 routes flipped *)
  let flips origin =
    let rec count len acc =
      if len > 24 then acc
      else begin
        let l =
          Validity_grid.summarize_length left ~root:(V4.p "63.160.0.0/12") ~len ~origin
        in
        let r =
          Validity_grid.summarize_length right ~root:(V4.p "63.160.0.0/12") ~len ~origin
        in
        count (len + 1) (acc + (r.Validity_grid.invalid - l.Validity_grid.invalid))
      end
    in
    count 13 0
  in
  Printf.printf
    "\nSide Effect 5 on this figure: %d subprefix routes (len 13..24, foreign origin)\n\
     flipped unknown->invalid when the /12 ROA appeared.\n"
    (flips 64999);
  None

(* ------------------------------------------------------------------ *)
(* Table 6: local policies vs the two attack classes                   *)
(* ------------------------------------------------------------------ *)

let tab6 ~quick:_ =
  let s = Topo_gen.small_scenario () in
  let victim_prefix = V4.p "63.174.16.0/20" in
  let dst = V4.addr_of_string_exn "63.174.23.7" in
  let healthy_idx =
    Origin_validation.build [ Vrp.make ~max_len:20 victim_prefix s.Topo_gen.victim ]
  in
  (* ROA whacked while Sprint's covering ROA exists: route invalid *)
  let whacked_idx = Origin_validation.build [ Vrp.make ~max_len:13 (V4.p "63.160.0.0/12") 1239 ] in
  let legit = [ { Propagation.prefix = victim_prefix; origin = s.Topo_gen.victim } ] in
  let hijack =
    Hijack.announcements ~victim_prefix ~victim_as:s.Topo_gen.victim
      ~attacker_as:s.Topo_gen.attacker
      (Hijack.Subprefix_hijack (Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24))
  in
  let cell policy idx anns ~attack =
    let net =
      Data_plane.build ~topo:s.Topo_gen.small_topo ~policy_of:(fun _ -> policy)
        ~validity_of:(Origin_validation.classify idx) anns
    in
    let ok = Data_plane.reaches net ~src:s.Topo_gen.source ~addr:dst ~expected:s.Topo_gen.victim in
    match (ok, attack) with
    | true, _ -> "YES"
    | false, `Hijack -> "NO (subprefix hijack succeeds)"
    | false, `Manipulation -> "NO (prefix offline)"
  in
  let t =
    Table.create
      [ "relying-party policy"; "prefix reachable: routing attack"; "RPKI manipulation" ]
  in
  List.iter
    (fun policy ->
      Table.add_row t
        [ Policy.to_string policy;
          cell policy healthy_idx hijack ~attack:`Hijack;
          cell policy whacked_idx legit ~attack:`Manipulation ])
    [ Policy.Drop_invalid; Policy.Depref_invalid; Policy.Ignore_rpki ];
  Table.print t;
  (* the same table measured as reachability fractions on a 124-AS topology *)
  Printf.printf "\nFractions of ASes still reaching the victim (124-AS synthetic topology):\n";
  let g = Topo_gen.generate Topo_gen.default_spec in
  let victim = List.hd g.Topo_gen.stub_asns and attacker = List.nth g.Topo_gen.stub_asns 7 in
  let healthy_idx = Origin_validation.build [ Vrp.make ~max_len:20 victim_prefix victim ] in
  let hijack =
    Hijack.announcements ~victim_prefix ~victim_as:victim ~attacker_as:attacker
      (Hijack.Subprefix_hijack (Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24))
  in
  let legit = [ { Propagation.prefix = victim_prefix; origin = victim } ] in
  let frac policy idx anns =
    let net =
      Data_plane.build ~topo:g.Topo_gen.topo ~policy_of:(fun _ -> policy)
        ~validity_of:(Origin_validation.classify idx) anns
    in
    Data_plane.reachability_fraction net ~addr:dst ~expected:victim
  in
  let t2 =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "policy"; "subprefix hijack"; "RPKI manipulation" ]
  in
  List.iter
    (fun policy ->
      Table.add_row t2
        [ Policy.to_string policy;
          Printf.sprintf "%.2f" (frac policy healthy_idx hijack);
          Printf.sprintf "%.2f" (frac policy whacked_idx legit) ])
    [ Policy.Drop_invalid; Policy.Depref_invalid; Policy.Ignore_rpki ];
  Table.print t2;
  None

(* ------------------------------------------------------------------ *)
(* Side Effect 5: partial deployment sweep                             *)
(* ------------------------------------------------------------------ *)

let se5 ~quick:_ =
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "customer ROA adoption"; "routes"; "invalid before"; "invalid after"; "unknown->invalid flips" ]
  in
  List.iter
    (fun (r : Rpki_sim.Deployment.row) ->
      Table.add_row t
        [ Printf.sprintf "%.2f" r.Rpki_sim.Deployment.adoption;
          string_of_int r.Rpki_sim.Deployment.total_routes;
          string_of_int r.Rpki_sim.Deployment.before.Rpki_sim.Deployment.invalid;
          string_of_int r.Rpki_sim.Deployment.after.Rpki_sim.Deployment.invalid;
          string_of_int r.Rpki_sim.Deployment.flips ])
    (Rpki_sim.Deployment.sweep ());
  Table.print t;
  let cover =
    Rpki_sim.Deployment.invalid_window ~spec:Rpki_sim.Deployment.default_spec
      Rpki_sim.Deployment.Cover_first
  in
  let sub =
    Rpki_sim.Deployment.invalid_window ~spec:Rpki_sim.Deployment.default_spec
      Rpki_sim.Deployment.Subprefixes_first
  in
  Printf.printf
    "\nOrdering ablation (the paper's deployment rule): issuing the covering ROA first\n\
     leaves %d routes invalid mid-deployment; issuing subprefix ROAs first leaves %d.\n"
    cover sub;
  None

(* ------------------------------------------------------------------ *)
(* Side Effect 6: missing information                                  *)
(* ------------------------------------------------------------------ *)

let se6 ~quick:_ =
  let t = Table.create [ "scenario"; "route"; "state"; "validation issues" ] in
  let classify (m : Model.t) rp route =
    let r = Relying_party.sync rp ~now:1 ~universe:m.Model.universe () in
    let idx = r.Relying_party.index in
    ( Origin_validation.state_to_string (Origin_validation.classify idx route),
      string_of_int (List.length r.Relying_party.issues) )
  in
  let route22 = Route.make (V4.p "63.174.16.0/22") 7341 in
  let route20 = Route.make (V4.p "63.174.16.0/20") 17054 in
  let m = Model.build () in
  let rp = Model.relying_party m in
  let st, issues = classify m rp route22 in
  Table.add_row t [ "healthy RPKI"; Route.to_string route22; st; issues ];
  let _ = Fault.delete_object (Authority.pub m.Model.continental) ~filename:m.Model.roa_target22 in
  let st, issues = classify m rp route22 in
  Table.add_row t
    [ "ROA (63.174.16.0/22, AS7341) missing"; Route.to_string route22; st; issues ];
  let m2 = Model.build () in
  let rp2 = Model.relying_party m2 in
  let _ = Fault.corrupt_object (Authority.pub m2.Model.continental) ~filename:m2.Model.roa_target22 () in
  let st, issues = classify m2 rp2 route22 in
  Table.add_row t [ "same ROA corrupted on disk"; Route.to_string route22; st; issues ];
  let m3 = Model.build () in
  let rp3 = Model.relying_party m3 in
  let _ = Fault.delete_object (Authority.pub m3.Model.continental) ~filename:m3.Model.roa_target20 in
  let st, issues = classify m3 rp3 route20 in
  Table.add_row t
    [ "ROA (63.174.16.0/20, AS17054) missing (no covering ROA)"; Route.to_string route20; st;
      issues ];
  Table.print t;
  Printf.printf
    "\nThe /22 goes INVALID when its ROA is missing (the /20 ROA covers it), while the /20\n\
     merely goes UNKNOWN — the asymmetry the paper calls 'easily misunderstood'.\n";
  None

(* ------------------------------------------------------------------ *)
(* Side Effect 7 / Section 6: the circular dependency                  *)
(* ------------------------------------------------------------------ *)

let se7 ~quick:_ =
  let timeline policy label =
    let _, hist = Scenario.run_section6 { Scenario.section6 with policy } in
    Printf.printf "\npolicy: %s\n" label;
    let t =
      Table.create
        [ "tick"; "event"; "VRPs"; "issues"; "continental repo"; "sprint repo" ]
    in
    let event = function
      | 3 -> "RP fetches CORRUPTED copy of the /20 ROA"
      | 4 -> "repository repaired"
      | _ -> ""
    in
    List.iter
      (fun (r : Rpki_sim.Loop.tick_record) ->
        let probe label = up_down (List.assoc label r.Rpki_sim.Loop.probe_results) in
        Table.add_row t
          [ Rtime.to_string r.Rpki_sim.Loop.time; event r.Rpki_sim.Loop.time;
            string_of_int r.Rpki_sim.Loop.vrp_count;
            string_of_int r.Rpki_sim.Loop.issue_count; probe "continental-repo";
            probe "sprint-repo" ])
      hist;
    Table.print t
  in
  timeline Policy.Drop_invalid "drop invalid (the failure persists after repair)";
  timeline Policy.Depref_invalid "depref invalid (recovers at the next sync)";
  timeline Policy.Ignore_rpki "ignore RPKI (control: never affected)";
  (* ablation: the two mitigations from the paper's open problems / the
     concurrent IETF work it cites *)
  Printf.printf "\nMitigation ablation (drop-invalid relying party):\n";
  let summarize label hist =
    let probe t = up_down (continental_up (List.nth hist (t - 1))) in
    Printf.printf "  %-42s t3 %-4s t4 %-4s t7 %s\n" label (probe 3) (probe 4) (probe 7)
  in
  let _, plain = Scenario.run_section6 Scenario.section6 in
  let _, mirrored =
    Scenario.run_section6
      { Scenario.section6 with
        source = Scenario.Section6 { Scenario.canned with mirrored = true } }
  in
  let _, graced = Scenario.run_section6 { Scenario.section6 with grace = 10 } in
  summarize "no mitigation" plain;
  summarize "mirrored publication point (ref [16])" mirrored;
  summarize "Suspenders-style 10-tick grace (ref [25])" graced;
  Printf.printf
    "  (mirroring confines the outage to the fault window; the grace hold\n\
    \   prevents it entirely but delays legitimate revocations by the window)\n";
  None

(* ------------------------------------------------------------------ *)
(* Extension: censorship campaigns on the Table 4 hierarchy            *)
(* ------------------------------------------------------------------ *)

let campaign ~quick:_ =
  let records = Rpki_juris.Dataset.paper_fixture () in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "country (via coerced ARIN)"; "target ROAs"; "reissues needed"; "silenced";
        "collateral" ]
  in
  List.iter
    (fun country ->
      let universe, rir_tas, _ = Campaign.hierarchy_of_dataset records in
      let arin = List.assoc Rpki_juris.Country.ARIN rir_tas in
      let rp =
        Relying_party.create ~name:"rp" ~asn:1
          ~tals:(List.map (fun (_, ta) -> Relying_party.tal_of_authority ta) rir_tas)
          ()
      in
      let asns = Campaign.asns_of_country records country in
      let c = Campaign.plan ~manipulator:arin ~objective:(Campaign.Target_asns asns) in
      let before = (Relying_party.sync rp ~now:1 ~universe ()).Relying_party.vrps in
      let executed, _ = Campaign.execute ~manipulator:arin c ~now:1 in
      let after = (Relying_party.sync rp ~now:1 ~universe ()).Relying_party.vrps in
      let d = Assess.diff ~before ~after in
      let collateral =
        List.filter (fun (v : Vrp.t) -> not (List.mem v.Vrp.asn asns)) d.Assess.net_lost
      in
      Table.add_row t
        [ country; string_of_int (List.length c.Campaign.steps);
          string_of_int (Campaign.reissue_count c); string_of_int executed;
          string_of_int (List.length collateral) ])
    [ "CO"; "FR"; "GB"; "MX" ];
  Table.print t;
  Printf.printf
    "\nEach row is out-of-jurisdiction coercion: none of these countries is in ARIN's\n\
     service region, yet every one of their ROAs is whackable with zero collateral.\n";
  None

(* ------------------------------------------------------------------ *)
(* Extension: partial adoption of drop-invalid (cf. the paper's [29])  *)
(* ------------------------------------------------------------------ *)

let adoption ~quick:_ =
  let g = Topo_gen.generate Topo_gen.default_spec in
  let victim = List.hd g.Topo_gen.stub_asns in
  let attacker = List.nth g.Topo_gen.stub_asns 42 in
  let victim_prefix = V4.p "203.0.112.0/20" in
  let dst = V4.addr_of_string_exn "203.0.119.80" in
  let idx = Origin_validation.build [ Vrp.make ~max_len:20 victim_prefix victim ] in
  let anns =
    Hijack.announcements ~victim_prefix ~victim_as:victim ~attacker_as:attacker
      (Hijack.Subprefix_hijack (Hijack.subprefix_containing ~victim_prefix ~addr:dst ~len:24))
  in
  let all_asns = Topology.asns g.Topo_gen.topo in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "fraction dropping invalid"; "everyone else ignores"; "tier-1+tier-2 adopt first" ]
  in
  let frac_with policy_of =
    let net = Data_plane.build ~topo:g.Topo_gen.topo ~policy_of ~validity_of:(Origin_validation.classify idx) anns in
    Data_plane.reachability_fraction net ~addr:dst ~expected:victim
  in
  List.iter
    (fun f ->
      (* random adoption at fraction f *)
      let rng = Rpki_util.Rng.create 23 in
      let adopters =
        List.filter (fun _ -> Rpki_util.Rng.float rng < f) all_asns
      in
      let random_frac =
        frac_with (fun asn ->
            if List.mem asn adopters then Policy.Drop_invalid else Policy.Ignore_rpki)
      in
      (* core-first adoption: tier-1 and tier-2 adopt before stubs *)
      let core = g.Topo_gen.tier1_asns @ g.Topo_gen.tier2_asns in
      let n_core = List.length core and n_all = List.length all_asns in
      let want = int_of_float (f *. float_of_int n_all) in
      let core_adopters =
        if want <= n_core then List.filteri (fun i _ -> i < want) core
        else core @ List.filteri (fun i _ -> i < want - n_core) g.Topo_gen.stub_asns
      in
      let core_frac =
        frac_with (fun asn ->
            if List.mem asn core_adopters then Policy.Drop_invalid else Policy.Ignore_rpki)
      in
      Table.add_row t
        [ Printf.sprintf "%.2f" f; Printf.sprintf "%.2f" random_frac;
          Printf.sprintf "%.2f" core_frac ])
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 1.0 ];
  Table.print t;
  Printf.printf
    "\nValues are the fraction of ASes still reaching the victim during a subprefix\n\
     hijack.  Placement matters more than volume — the 'is the juice worth the\n\
     squeeze' observation of the paper's ref [29].\n";
  None

(* ------------------------------------------------------------------ *)
(* Extension: Side Effect 4 quantified — reissue cost vs target depth  *)
(* ------------------------------------------------------------------ *)

(* A straight chain TA -> A1 -> ... -> A[depth], every level holding one
   bystander ROA, the target ROA at the bottom. *)
let build_chain depth =
  let universe = Universe.create () in
  let ta =
    Authority.create_trust_anchor ~name:(Printf.sprintf "CTA%d" depth)
      ~resources:(Resources.of_v4_strings [ "40.0.0.0/8" ])
      ~uri:(Printf.sprintf "rsync://cta%d/repo" depth)
      ~addr:(V4.addr_of_string_exn "198.51.100.40") ~host_asn:1 ~now:0 ~universe ()
  in
  let rec extend parent level =
    (* each level keeps half of its parent's space and a bystander ROA *)
    let len = 8 + (2 * level) in
    let prefix = V4.Prefix.make (40 lsl 24) len in
    let a =
      Authority.create_child parent
        ~name:(Printf.sprintf "chain%d-%d" depth level)
        ~resources:(Resources.make ~v4:(V4.Set.of_prefix prefix) ())
        ~uri:(Printf.sprintf "rsync://chain%d-%d/repo" depth level)
        ~addr:((40 lsl 24) + level) ~host_asn:(100 + level) ~now:0 ~universe ()
    in
    let bystander = V4.Prefix.make ((40 lsl 24) lor (1 lsl (31 - len))) (len + 2) in
    ignore (Authority.issue_simple_roa a ~asid:(500 + level) ~prefix:bystander ~now:0 ());
    if level = depth then begin
      let target, _ =
        Authority.issue_simple_roa a ~asid:999 ~prefix:(V4.Prefix.make (40 lsl 24) (len + 2))
          ~now:0 ()
      in
      (universe, ta, (Authority.name a), target)
    end
    else extend a (level + 1)
  in
  extend ta 1

let depth ~quick:_ =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "target is the manipulator's..."; "depth"; "reissued RCs"; "reissued ROAs";
        "net collateral" ]
  in
  List.iter
    (fun d ->
      let universe, ta, issuer, target = build_chain d in
      let plan = Whack.plan_targeted ~manipulator:ta ~target_issuer:issuer ~target_filename:target in
      let rcs =
        List.length
          (List.filter (function Whack.Reissue_rc _ -> true | _ -> false) plan.Whack.reissues)
      in
      let roas =
        List.length
          (List.filter (function Whack.Reissue_roa _ -> true | _ -> false) plan.Whack.reissues)
      in
      let rp =
        Relying_party.create ~name:"rp" ~asn:1 ~tals:[ Relying_party.tal_of_authority ta ] ()
      in
      let before = (Relying_party.sync rp ~now:1 ~universe ()).Relying_party.vrps in
      ignore (Whack.execute ~manipulator:ta plan ~now:1);
      let after = (Relying_party.sync rp ~now:1 ~universe ()).Relying_party.vrps in
      let d' = Assess.diff ~before ~after in
      let collateral =
        List.filter (fun (v : Vrp.t) -> v.Vrp.asn <> 999) d'.Assess.net_lost
      in
      (* the ROA is one generation below its issuer: issuer depth d means
         the ROA is the manipulator's (d+1)-generation descendant *)
      let name =
        match d + 1 with
        | 2 -> "grandchild ROA (Side Effect 3)"
        | 3 -> "great-grandchild ROA (Side Effect 4)"
        | n -> Printf.sprintf "%d generations down" n
      in
      Table.add_row t
        [ name; string_of_int (d + 1); string_of_int rcs; string_of_int roas;
          string_of_int (List.length collateral) ])
    [ 1; 2; 3; 4 ];
  Table.print t;
  Printf.printf
    "\nEach extra level of depth costs one more suspiciously-reissued RC — the paper's\n\
     Side Effect 4: deeper whacking stays feasible but gets easier to detect.\n";
  None

(* ------------------------------------------------------------------ *)
(* Incremental sync: cold full validation vs. warm delta tick          *)
(* ------------------------------------------------------------------ *)

(* A flat deployment: [n_points] sibling CAs under one TA, the target VRP
   count spread over multi-entry ROAs so RSA key generation stays cheap.
   Each child holds a /15 slice of 30.0.0.0/8. *)
let build_flat_universe ~n_points ~n_vrps =
  let universe = Universe.create () in
  let ta =
    Authority.create_trust_anchor ~name:"TA"
      ~resources:(Resources.of_v4_strings [ "30.0.0.0/8" ])
      ~uri:"rsync://ta/repo" ~addr:1 ~host_asn:1 ~now:0 ~universe ()
  in
  let per_point = (n_vrps + n_points - 1) / n_points in
  let children =
    Array.init n_points (fun c ->
        let base = (30 lsl 24) lor (c lsl 17) in
        let child =
          Authority.create_child ta
            ~name:(Printf.sprintf "C%03d" c)
            ~resources:(Resources.make ~v4:(V4.Set.of_prefix (V4.Prefix.make base 15)) ())
            ~uri:(Printf.sprintf "rsync://c%03d/repo" c)
            ~addr:(base + 1) ~host_asn:(100 + c) ~now:0 ~universe ()
        in
        let entries =
          List.init per_point (fun i ->
              Roa.entry
                ~max_len:(24 + (i / 512))
                (V4.Prefix.make (base lor ((i mod 512) lsl 8)) 24))
        in
        ignore (Authority.issue_roa child ~asid:(1000 + c) ~v4_entries:entries ~now:0 ());
        child)
  in
  (universe, ta, children)

let sync_incremental ~quick =
  let sizes = if quick then [ (16, 2_000) ] else [ (100, 10_000); (100, 40_000) ] in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "VRPs"; "points"; "cold (ms)"; "warm (ms)"; "warm/cold"; "reused/revalidated" ]
  in
  List.iter
    (fun (n_points, n_vrps) ->
      let universe, ta, children = build_flat_universe ~n_points ~n_vrps in
      let rp =
        Relying_party.create ~name:"bench-rp" ~asn:1
          ~tals:[ Relying_party.tal_of_authority ta ] ()
      in
      let cold_r, cold_ms = time_ms (fun () -> Relying_party.sync rp ~now:1 ~universe ()) in
      (* the warm tick: one publication point refreshes its CRL + manifest *)
      Authority.refresh children.(0) ~now:2;
      let warm_r, warm_ms = time_ms (fun () -> Relying_party.sync rp ~now:2 ~universe ()) in
      let cold_n = List.length cold_r.Relying_party.vrps in
      let warm_n = List.length warm_r.Relying_party.vrps in
      check (warm_n = cold_n) "the warm tick changed the VRP count (%d -> %d)" cold_n warm_n;
      Table.add_row t
        [ string_of_int cold_n;
          string_of_int (n_points + 1);
          Printf.sprintf "%.1f" cold_ms;
          Printf.sprintf "%.1f" warm_ms;
          Printf.sprintf "%.3f" (warm_ms /. cold_ms);
          Printf.sprintf "%d/%d" warm_r.Relying_party.points_reused
            warm_r.Relying_party.points_revalidated ])
    sizes;
  Table.print t;
  Printf.printf
    "\nA warm tick re-validates only the touched point; everything else is\n\
     replayed from the per-point memo and the index is patched by the diff.\n";
  None

(* ------------------------------------------------------------------ *)
(* Stalloris: stall intensity x fetch policy                           *)
(* ------------------------------------------------------------------ *)

(* The transport-level downgrade: a Stalloris-style adversary throttles the
   victim's publication point while every authority performs perfect upkeep
   (short validity windows, re-signed every tick).  A relying party that
   cannot complete fetches serves ever-staler cache until the cached
   objects' validity windows lapse; under drop-invalid the victim's route
   then flips valid -> invalid (Sprint's covering /12-13 ROA stays fresh —
   it lives at an unstalled point fetched earlier in the walk).  The fetch
   policy decides the blast radius: [naive] burns its whole budget on the
   stalled point (starving innocent points behind it in the walk), while
   bounded retries plus mirror/RRDP fallback confine the damage to nothing
   but slightly higher fetch latency. *)
let stall ~quick =
  let ticks = if quick then 9 else 14 in
  let validity = if quick then 5 else 8 in
  let refresh_interval = 3 in
  let attack_at = 3 in
  let intensities = if quick then [ 0; 256 ] else [ 0; 4; 32; 256 ] in
  let policies =
    [ ("naive", Relying_party.naive_policy);
      ("default", Relying_party.default_policy);
      ("resilient", Relying_party.resilient_policy) ]
  in
  let victim_route = Route.make (V4.p "63.174.16.0/20") Model.as_continental in
  let run_cell ~policy ~intensity =
    let rig =
      Scenario.build
        { Scenario.section6 with
          source =
            Scenario.Section6
              { Scenario.mirrored = true; rrdp = true; validity = Some validity;
                refresh_interval = Some refresh_interval };
          fetch_policy = Some policy }
    in
    let sim = rig.Scenario.sim in
    let plan =
      if intensity = 0 then None
      else Some (Stall.plan_against ~victim:rig.Scenario.victim_ca ~intensity)
    in
    let continental_uri = Pub_point.uri (Authority.pub rig.Scenario.victim_ca) in
    List.init ticks (fun i ->
        let now = i + 1 in
        if now = attack_at then
          Option.iter (fun p -> Stall.apply p (Rpki_sim.Loop.transport sim)) plan;
        Authority.maintain rig.Scenario.root ~now;
        let r = Rpki_sim.Loop.step sim ~now in
        let result = Option.get (Relying_party.last_result sim.Rpki_sim.Loop.rp) in
        let state = Origin_validation.classify result.Relying_party.index victim_route in
        let channel =
          match
            List.find_opt
              (fun (tr : Relying_party.transfer) -> tr.Relying_party.t_uri = continental_uri)
              result.Relying_party.transfers
          with
          | Some tr -> tr.Relying_party.t_channel
          | None -> "-"
        in
        (now, state, channel, r))
  in
  let short_channel c =
    match String.index_opt c ':' with Some i -> String.sub c 0 i | None -> c
  in
  let cell_summary timeline =
    let _, final_state, final_channel, _ = last timeline in
    let first_bad =
      List.find_map
        (fun (now, st, _, _) -> if st <> Origin_validation.Valid then Some now else None)
        timeline
    in
    let worst_age =
      List.fold_left (fun acc (_, _, _, r) -> max acc r.Rpki_sim.Loop.max_data_age) 0 timeline
    in
    match first_bad with
    | None ->
      Printf.sprintf "valid (%s%s)" (short_channel final_channel)
        (if worst_age > 0 then Printf.sprintf ", age<=%d" worst_age else "")
    | Some t ->
      Printf.sprintf "%s@t%d (%s, age %d)"
        (String.uppercase_ascii (Origin_validation.state_to_string final_state))
        t (short_channel final_channel) worst_age
  in
  let grid = (* (intensity, (policy_name, timeline) list) list *)
    List.map
      (fun intensity ->
        (intensity, List.map (fun (pn, p) -> (pn, run_cell ~policy:p ~intensity)) policies))
      intensities
  in
  let t =
    Table.create
      ~aligns:(Table.Right :: List.map (fun _ -> Table.Left) policies)
      ("stall x" :: List.map fst policies)
  in
  List.iter
    (fun (intensity, cells) ->
      Table.add_row t
        (string_of_int intensity :: List.map (fun (_, tl) -> cell_summary tl) cells))
    grid;
  Table.print t;
  Printf.printf
    "\nVictim route: 63.174.16.0/20 via AS %d; Sprint's covering /12-13 ROA stays\n\
     fresh, so once the stalled cache's ROAs expire the route turns INVALID and\n\
     is dropped.  Mirror/RRDP fallback keeps serving fresh data instead.\n"
    Model.as_continental;
  (* the two extreme cells, tick by tick *)
  let worst = List.fold_left max 0 intensities in
  List.iter
    (fun pn ->
      match List.assoc_opt worst grid with
      | None -> ()
      | Some cells ->
        let timeline = List.assoc pn cells in
        Printf.printf "\n%s policy under stall x%d:\n" pn worst;
        let tt =
          Table.create
            ~aligns:[ Table.Right; Table.Left; Table.Left; Table.Left; Table.Right; Table.Right ]
            [ "tick"; "continental via"; "route"; "probe"; "data age"; "sync time" ]
        in
        List.iter
          (fun (now, state, channel, (r : Rpki_sim.Loop.tick_record)) ->
            Table.add_row tt
              [ string_of_int now; channel; Origin_validation.state_to_string state;
                up_down (continental_up r); string_of_int r.Rpki_sim.Loop.max_data_age;
                Printf.sprintf "%d%s" r.Rpki_sim.Loop.sync_elapsed
                  (if r.Rpki_sim.Loop.budget_exhausted then "!" else "") ])
          timeline;
        Table.print tt)
    [ "naive"; "resilient" ];
  Printf.printf
    "\n'!' marks a sync whose fetch budget ran out.  The naive policy spends its\n\
     entire budget re-trying the stalled point (starving points after it in the\n\
     walk); the resilient policy cuts losses and falls back to mirror/RRDP.\n";
  (* machine-readable grid *)
  let open Json in
  let tick_json (now, state, channel, (r : Rpki_sim.Loop.tick_record)) =
    Object
      [ ("tick", Int now); ("route", String (Origin_validation.state_to_string state));
        ("channel", String channel); ("probe_up", Bool (continental_up r));
        ("data_age", Int r.Rpki_sim.Loop.max_data_age);
        ("sync_elapsed", Int r.Rpki_sim.Loop.sync_elapsed);
        ("budget_exhausted", Bool r.Rpki_sim.Loop.budget_exhausted) ]
  in
  let cell_json (intensity, cells) =
    List.map
      (fun (pn, timeline) ->
        Object
          [ ("policy", String pn); ("intensity", Int intensity);
            ("timeline", list tick_json timeline) ])
      cells
  in
  Some
    (Object
       [ ("experiment", String "stall"); ("ticks", Int ticks); ("attack_at", Int attack_at);
         ("validity", Int validity); ("refresh_interval", Int refresh_interval);
         ("cells", List (List.concat_map cell_json grid)) ])

(* ------------------------------------------------------------------ *)
(* Transparency: split-view detection x vantages x gossip period       *)
(* ------------------------------------------------------------------ *)

let transparency ~quick =
  let ticks = if quick then 8 else 12 in
  let grace = 4 in
  let attack_at = 3 in
  let monitor_counts = if quick then [ 0; 2 ] else [ 0; 1; 2; 3 ] in
  let periods = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let stealths =
    if quick then [ Split_view.Stealthy ] else [ Split_view.Stealthy; Split_view.Overt ]
  in
  let run_cell ~monitors ~period ~stealth =
    let sv = Scenario.build { Scenario.default with monitors; grace; gossip_period = period } in
    ignore (Scenario.run_split_view ~stealth ~attack_at ~ticks sv);
    let sim = sv.Scenario.sim in
    let history = Rpki_sim.Loop.history sim in
    let fork_tick = Rpki_sim.Loop.first_fork_tick sim in
    let invalid_tick =
      List.find_map
        (fun (r : Rpki_sim.Loop.tick_record) ->
          if continental_up r then None else Some r.Rpki_sim.Loop.time)
        history
    in
    let proof_bytes =
      sum
        (fun (r : Rpki_sim.Loop.tick_record) ->
          match r.Rpki_sim.Loop.gossip_report with Some rep -> rep.Gossip.r_proof_bytes | None -> 0)
        history
    in
    (* a single inclusion proof against the victim's final log, for scale *)
    let vlog = Relying_party.transparency_log sim.Rpki_sim.Loop.rp in
    let log_size = Rpki_transparency.Log.size vlog in
    let one_proof_bytes =
      if log_size = 0 then 0
      else
        Rpki_transparency.Merkle.proof_bytes
          (Rpki_transparency.Log.inclusion_proof vlog ~index:0 ~size:log_size)
    in
    (fork_tick, invalid_tick, proof_bytes, log_size, one_proof_bytes)
  in
  let cells =
    List.concat_map
      (fun stealth ->
        List.concat_map
          (fun period ->
            List.map
              (fun monitors -> (stealth, period, monitors, run_cell ~monitors ~period ~stealth))
              monitor_counts)
          periods)
      stealths
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Left; Table.Right; Table.Left;
          Table.Right; Table.Right ]
      [ "stealth"; "period"; "vantages"; "fork detected"; "latency"; "route invalid";
        "margin"; "proof B" ]
  in
  List.iter
    (fun (stealth, period, monitors, (fork, invalid, proof_bytes, _, _)) ->
      let fork_s, lat_s =
        match fork with
        | Some tk -> (Printf.sprintf "t%d" tk, string_of_int (tk - attack_at))
        | None -> ((if monitors = 0 then "missed (no mesh)" else "missed"), "-")
      in
      let invalid_s =
        match invalid with Some tk -> Printf.sprintf "t%d" tk | None -> "never"
      in
      let margin_s =
        match (fork, invalid) with
        | Some f, Some i -> string_of_int (i - f)
        | _ -> "-"
      in
      Table.add_row t
        [ Split_view.stealth_to_string stealth; string_of_int period;
          string_of_int (monitors + 1); fork_s; lat_s; invalid_s; margin_s;
          string_of_int proof_bytes ])
    cells;
  Table.print t;
  let _, _, _, (_, _, _, log_size, one_proof) = last cells in
  Printf.printf
    "\nVictim route: 63.174.16.0/20 via AS %d; the fork suppresses its ROA only in\n\
     the victim's view.  Grace holds the VRP %d ticks, so 'margin' is how many\n\
     ticks before the route died the fork alarm fired.  One vantage ('no mesh')\n\
     never detects: the stealthy fork is locally clean.  Victim log: %d\n\
     observations; one inclusion proof at that size: %d bytes.\n"
    Model.as_continental grace log_size one_proof;
  let open Json in
  let cell (stealth, period, monitors, (fork, invalid, proof_bytes, log_size, one_proof)) =
    Object
      [ ("stealth", String (Split_view.stealth_to_string stealth)); ("gossip_period", Int period);
        ("vantages", Int (monitors + 1)); ("fork_tick", option int fork);
        ("invalid_tick", option int invalid);
        ("detection_latency", option (fun tk -> Int (tk - attack_at)) fork);
        ( "detected_before_invalid",
          Bool (match (fork, invalid) with Some f, Some i -> f < i | _ -> false) );
        ("proof_bytes", Int proof_bytes); ("victim_log_size", Int log_size);
        ("inclusion_proof_bytes", Int one_proof) ]
  in
  Some
    (Object
       [ ("experiment", String "transparency"); ("ticks", Int ticks); ("attack_at", Int attack_at);
         ("grace", Int grace); ("cells", list cell cells) ])

(* ------------------------------------------------------------------ *)
(* Restart: durable state x disk faults x the rollback adversary       *)
(* ------------------------------------------------------------------ *)

(* Timeline per cell: [Scenario.run_rollback].  The adversary captures the
   authority's state at the end of t2, the authority revokes a ROA at t3
   (the honest change the rollback will undo), and the victim is killed
   right after its (possibly fault-corrupted) t5 save with the frozen t2
   state installed as its per-client view.  The victim restarts at
   [restart_at] and the run continues to [ticks].

   Measured per cell: the typed recovery outcome, whether and when the
   served rollback was detected (own restored history, or a gossip Rollback
   alarm), and whether the resurrected VRP is router-visible at the end —
   the attack's actual yield. *)
let restart ~quick =
  let ticks = if quick then 9 else 12 in
  let revoke_at = 3 and capture_at = 2 and kill_after = 5 in
  let restarts = if quick then [ 6 ] else [ 6; 8 ] in
  let faults =
    if quick then [ None; Some (Rpki_persist.Disk.Bit_flip 12345) ]
    else
      [ None; Some Rpki_persist.Disk.Torn_write; Some Rpki_persist.Disk.Partial_flush;
        Some (Rpki_persist.Disk.Bit_flip 12345); Some Rpki_persist.Disk.Drop_rename ]
  in
  let victim = "victim-rp" in
  let target_prefix = V4.p "63.174.25.0/24" in
  let run_cell ~persist ~fault ~restart_at =
    let rig = Scenario.build { Scenario.default with persist; grace = 0 } in
    let { Scenario.recovery; _ } =
      Scenario.run_rollback ?disk_fault:fault ~restart_at ~ticks rig
    in
    let sim = rig.Scenario.sim in
    let rtr_cache = Rpki_rtr.Server.cache (Rpki_sim.Loop.rtr_server sim) in
    let history = Rpki_sim.Loop.history sim in
    let record_at tk =
      List.find_opt (fun (r : Rpki_sim.Loop.tick_record) -> r.Rpki_sim.Loop.time = tk) history
    in
    let serial_of = function Some r -> r.Rpki_sim.Loop.rtr_serial | None -> 0 in
    let detect = Rpki_sim.Loop.first_rollback_tick sim in
    let local_detect =
      List.exists
        (fun (r : Rpki_sim.Loop.tick_record) -> r.Rpki_sim.Loop.regressions <> [])
        history
    in
    let gossip_rollback, log_resets =
      List.fold_left
        (fun (rb, lr) (r : Rpki_sim.Loop.tick_record) ->
          match r.Rpki_sim.Loop.gossip_report with
          | None -> (rb, lr)
          | Some rep ->
            ( rb || List.exists Gossip.is_rollback rep.Gossip.r_alarms,
              lr
              + List.length
                  (List.filter
                     (function Gossip.Log_reset _ -> true | _ -> false)
                     rep.Gossip.r_alarms) ))
        (false, 0) history
    in
    let vrp_present l =
      List.exists (fun (v : Vrp.t) -> V4.Prefix.equal v.Vrp.prefix target_prefix) l
    in
    let router_visible =
      vrp_present (Rpki_rtr.Session.cache_vrps rtr_cache)
    in
    let victim_believes = vrp_present (Relying_party.vrps sim.Rpki_sim.Loop.rp) in
    let restart_rec = record_at restart_at in
    let restart_diff =
      match restart_rec with
      | Some r -> Vrp.diff_size r.Rpki_sim.Loop.vrp_diff
      | None -> 0
    in
    let final_holds =
      match List.rev history with
      | r :: _ -> r.Rpki_sim.Loop.rtr_holds
      | [] -> 0
    in
    let snapshot_bytes =
      if persist then
        Rpki_persist.Store.snapshot_bytes (Rpki_sim.Loop.vantage_store sim ~name:victim)
      else 0
    in
    ( recovery, detect, local_detect, gossip_rollback, log_resets, router_visible,
      victim_believes, restart_diff, serial_of (record_at kill_after),
      serial_of restart_rec, final_holds, snapshot_bytes )
  in
  let fault_name = function
    | None -> "none"
    | Some f -> Rpki_persist.Disk.fault_to_string f
  in
  let cells =
    List.concat_map
      (fun restart_at ->
        List.map
          (fun fault -> (true, fault, restart_at, run_cell ~persist:true ~fault ~restart_at))
          faults
        @ [ (false, None, restart_at, run_cell ~persist:false ~fault:None ~restart_at) ])
      restarts
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Left; Table.Left; Table.Right;
          Table.Left; Table.Right; Table.Right ]
      [ "persist"; "fault"; "restart"; "recovery"; "detected"; "latency";
        "attack yield"; "resync diff"; "snap B" ]
  in
  List.iter
    (fun (persist, fault, restart_at,
          ( recovery, detect, local, rollback, _resets, router_visible, _believes,
            restart_diff, _sk, _sa, _holds, snap_bytes )) ->
      let detect_s, lat_s =
        match detect with
        | Some tk ->
          ( Printf.sprintf "t%d (%s)" tk
              (match (local, rollback) with
              | true, true -> "own log + gossip"
              | true, false -> "own log"
              | false, true -> "gossip"
              | false, false -> "?"),
            string_of_int (tk - restart_at) )
        | None -> ("missed", "-")
      in
      Table.add_row t
        [ (if persist then "on" else "off"); fault_name fault;
          Printf.sprintf "t%d" restart_at;
          Relying_party.recovery_to_string recovery; detect_s; lat_s;
          (if router_visible then "VRP resurrected" else "held/none");
          string_of_int restart_diff; string_of_int snap_bytes ])
    cells;
  Table.print t;
  Printf.printf
    "\nThe adversary replays the authority's authentic t%d state to the restarted\n\
     victim, undoing the t%d revocation of (63.174.25.0/24, AS %d).  The replay is\n\
     *not* equivocation — peers once recorded those exact bytes — so only history\n\
     detects it: the victim's restored log (serial regression) or the monitors'\n\
     memory of its serial line (gossip Rollback).  Every injected disk fault must\n\
     degrade to an explicit Recovered_fresh state, never a silent trust.\n"
    capture_at revoke_at Model.as_continental;
  (* the headline asymmetry this PR exists to measure — fail loudly (and
     fail `dune runtest`) if it ever stops holding *)
  List.iter
    (fun (persist, fault, _restart_at,
          ( recovery, detect, _local, _rollback, _resets, router_visible, _believes,
            _diff, _sk, _sa, _holds, _snap )) ->
      match (persist, fault, recovery) with
      | true, None, Relying_party.Recovered _ ->
        check (detect <> None) "persisted victim missed the rollback";
        check (not router_visible) "resurrected VRP router-visible despite detection"
      | true, None, Relying_party.Recovered_fresh _ ->
        check false "fault-free snapshot failed to restore"
      | true, Some _, Relying_party.Recovered_fresh Relying_party.No_snapshot
      | true, Some _, Relying_party.Recovered _ ->
        check false "injected disk fault did not surface as an explicit degraded state"
      | true, Some _, Relying_party.Recovered_fresh _ -> ()
      | false, _, Relying_party.Recovered _ -> check false "recovered state without persistence"
      | false, _, Relying_party.Recovered_fresh _ ->
        check (detect = None) "rollback detected without any persisted baseline";
        check router_visible "fresh-start victim should have accepted the replayed VRP")
    cells;
  Printf.printf
    "Asymmetry holds: persistence on => detected (evidence), off => silent.\n";
  let open Json in
  let cell
      ( persist, fault, restart_at,
        ( recovery, detect, local, rollback, resets, router_visible, believes, restart_diff, sk,
          sa, holds, snap_bytes ) ) =
    Object
      [ ("persist", Bool persist); ("fault", String (fault_name fault));
        ("restart_at", Int restart_at);
        ("recovery", String (Relying_party.recovery_to_string recovery));
        ("detect_tick", option int detect);
        ("detection_latency", option (fun tk -> Int (tk - restart_at)) detect);
        ("own_log_regression", Bool local); ("gossip_rollback", Bool rollback);
        ("log_resets", Int resets); ("attack_effective", Bool router_visible);
        ("victim_believes_replay", Bool believes); ("restart_diff_size", Int restart_diff);
        ("rtr_serial_at_kill", Int sk); ("rtr_serial_after_restart", Int sa);
        ("rtr_holds", Int holds); ("snapshot_bytes", Int snap_bytes) ]
  in
  Some
    (Object
       [ ("experiment", String "restart"); ("ticks", Int ticks); ("capture_at", Int capture_at);
         ("revoke_at", Int revoke_at); ("killed_after", Int kill_after);
         ("cells", list cell cells) ])

(* ------------------------------------------------------------------ *)
(* Multi-vantage: the shared validation plane at scale                  *)
(* ------------------------------------------------------------------ *)

(* Two arms.

   Scaling: vantage counts x shared-cache on/off under worst-case churn
   (refresh_interval 1 + per-tick Authority.maintain: every publication
   point re-signs its CRL and manifest every tick, so nothing is memoizable
   across ticks and the per-vantage memo never hits).  Gossip is pushed
   beyond the horizon to isolate the validation plane.  Measured per cell:
   wall-clock per tick, RSA verifications executed (ground truth from the
   global counter) vs. answered by the shared verdict memo, and the cache
   hit rate.  Cache-off cost grows with vantages x objects; cache-on with
   distinct observed content.

   Detection identity: the full split-view scenario (gossip every tick,
   stealthy fork at t3) run twice, cache on and off.  The cache must be
   invisible: same per-tick VRP counts, probe results, serials and diffs,
   same fork detection tick, and byte-identical exported fork evidence. *)
let multivantage ~quick =
  let ticks = if quick then 4 else 6 in
  let counts = if quick then [ 4; 32 ] else [ 4; 32; 128; 256 ] in
  let run_cell ~vantages ~cache =
    let sv =
      Scenario.build
        { Scenario.default with
          source = Scenario.Section6 { Scenario.canned with refresh_interval = Some 1 };
          monitors = vantages - 1; gossip_period = ticks + 1; valcache = cache }
    in
    let sim = sv.Scenario.sim in
    let per_tick = ref [] in
    for now = 1 to ticks do
      Authority.maintain sv.Scenario.root ~now;
      let record, ms = time_ms (fun () -> Rpki_sim.Loop.step sim ~now) in
      per_tick := (record, ms) :: !per_tick
    done;
    let recs = List.rev !per_tick in
    let total_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. recs in
    let checks = sum (fun (r, _) -> r.Rpki_sim.Loop.sig_checks) recs in
    let saved = sum (fun (r, _) -> r.Rpki_sim.Loop.sig_saved) recs in
    let hit_rate =
      if checks + saved = 0 then 0. else float_of_int saved /. float_of_int (checks + saved)
    in
    (total_ms, List.map snd recs, checks, saved, hit_rate)
  in
  let cells =
    List.concat_map
      (fun vantages ->
        List.map (fun cache -> (vantages, cache, run_cell ~vantages ~cache)) [ false; true ])
      counts
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "vantages"; "cache"; "total ms"; "ms/tick"; "sig checks"; "sig saved"; "hit rate" ]
  in
  List.iter
    (fun (vantages, cache, (total_ms, _, checks, saved, hit_rate)) ->
      Table.add_row t
        [ string_of_int vantages;
          (if cache then "shared" else "off");
          Printf.sprintf "%.1f" total_ms;
          Printf.sprintf "%.2f" (total_ms /. float_of_int ticks);
          string_of_int checks; string_of_int saved;
          Printf.sprintf "%.3f" hit_rate ])
    cells;
  Table.print t;
  (* the cache must never make validation do more crypto *)
  List.iter
    (fun vantages ->
      let checks_of want =
        List.find_map
          (fun (v, c, (_, _, checks, _, _)) -> if v = vantages && c = want then Some checks else None)
          cells
        |> Option.get
      in
      check (checks_of true <= checks_of false) "shared cache did MORE crypto at %d vantages"
        vantages;
      (* the acceptance bar: at >= 128 vantages the shared plane must cut
         signature verifications by at least 5x *)
      check
        (not (vantages >= 128 && checks_of false < 5 * checks_of true))
        "< 5x verification reduction at %d vantages" vantages)
    counts;
  (* --- detection identity: the cache must be invisible to split-view --- *)
  let detect_ticks = 8 and attack_at = 3 in
  let detection_run ~cache =
    let sv =
      Scenario.build { Scenario.default with monitors = 3; valcache = cache }
    in
    ignore (Scenario.run_split_view ~attack_at ~ticks:detect_ticks sv);
    let sim = sv.Scenario.sim in
    let trace =
      List.map
        (fun (r : Rpki_sim.Loop.tick_record) ->
          ( r.Rpki_sim.Loop.time, r.Rpki_sim.Loop.vrp_count, r.Rpki_sim.Loop.probe_results,
            r.Rpki_sim.Loop.rtr_serial,
            List.length r.Rpki_sim.Loop.vrp_diff.Vrp.added,
            List.length r.Rpki_sim.Loop.vrp_diff.Vrp.removed ))
        (Rpki_sim.Loop.history sim)
    in
    let checks = sum (fun r -> r.Rpki_sim.Loop.sig_checks) (Rpki_sim.Loop.history sim) in
    (Rpki_sim.Loop.first_fork_tick sim, trace, first_fork_evidence sim, checks)
  in
  let fork_off, trace_off, evidence_off, checks_off = detection_run ~cache:false in
  let fork_on, trace_on, evidence_on, checks_on = detection_run ~cache:true in
  check (fork_on = fork_off) "cache changed the fork detection tick";
  check (trace_on = trace_off) "cache changed the per-tick results";
  check (String.equal evidence_on evidence_off) "cache changed the exported fork evidence bytes";
  check (checks_on <= checks_off) "shared cache did MORE crypto in the detection run";
  Printf.printf
    "\nWorst-case churn: every point re-signs CRL+manifest each tick, so the\n\
     per-vantage memo never hits and cache-off pays vantages x objects RSA\n\
     verifications; the shared plane verifies each distinct object once and\n\
     replays point outcomes content-addressed.  Detection identity: fork at %s\n\
     cache-on and cache-off, evidence bundles byte-identical (%d bytes).\n"
    (match fork_on with Some tk -> Printf.sprintf "t%d" tk | None -> "never")
    (String.length evidence_on);
  let open Json in
  let ms x = Fixed (2, x) in
  let cell (vantages, cache, (total_ms, per_tick, checks, saved, hit_rate)) =
    Object
      [ ("vantages", Int vantages); ("cache", Bool cache); ("total_ms", ms total_ms);
        ("per_tick_ms", list ms per_tick); ("sig_checks", Int checks); ("sig_saved", Int saved);
        ("hit_rate", Fixed (4, hit_rate)) ]
  in
  let tick = option int in
  Some
    (Object
       [ ("experiment", String "multivantage"); ("ticks", Int ticks); ("refresh_interval", Int 1);
         ("cells", list cell cells);
         ( "detection",
           Object
             [ ("ticks", Int detect_ticks); ("attack_at", Int attack_at); ("vantages", Int 4);
               ("fork_tick_cache_on", tick fork_on); ("fork_tick_cache_off", tick fork_off);
               ("identical_traces", Bool (trace_on = trace_off));
               ("identical_evidence", Bool (String.equal evidence_on evidence_off));
               ("evidence_bytes", Int (String.length evidence_on));
               ("sig_checks_cache_on", Int checks_on);
               ("sig_checks_cache_off", Int checks_off) ] ) ])

(* ------------------------------------------------------------------ *)
(* RTR serving plane: one cache, thousands of sessions                 *)
(* ------------------------------------------------------------------ *)

(* The serving-plane claim: response bytes are encoded once per serial and
   replayed, so bytes-encoded-per-serial is flat in the session count while
   a per-session [Session.serve] re-encodes everything for every router.
   The sweep drives a deterministic churn workload through
   [Rpki_rtr.Server] at increasing session counts, checks after every
   batched notify that all sessions converged to the cache's exact VRP set
   (a mid-run hold included), and closes with a per-session baseline arm
   and a Domain sweep that must not change a single accounting byte and
   times [flush ~domains:1/2/4] on a mid-sized cell and on the largest. *)
let rtr ~quick =
  let module Server = Rpki_rtr.Server in
  let module Session = Rpki_rtr.Session in
  let module Pdu = Rpki_rtr.Pdu in
  let ticks = if quick then 8 else 20 in
  let universe = if quick then 200 else 1000 in
  let session_counts = if quick then [ 16; 128 ] else [ 16; 64; 256; 1024; 4096 ] in
  let churn_levels = [ 8; 64 ] in
  (* tick [t]'s VRP set: a stable universe where the first [churn] prefixes
     re-originate every tick — each serial is churn announcements plus churn
     withdrawals, the steady drip of a production cache *)
  let set_at ~churn t =
    List.init universe (fun i ->
        let asn = if i < churn then 1000 + t else 100 + (i mod 50) in
        Vrp.make (V4.Prefix.make ((10 lsl 24) lor (i lsl 8)) 24) asn)
  in
  let hold_prefix = V4.Prefix.make (10 lsl 24) 24 in
  let run_cell ~sessions ~churn ~domains =
    let server = Server.create () in
    let _ = List.init sessions (fun _ -> Server.attach server) in
    Server.publish server (set_at ~churn 0);
    ignore (Server.flush ~domains server);
    let converge_ms = ref 0. in
    for t = 1 to ticks do
      Server.publish server (set_at ~churn t);
      (* a mid-run evidence hold rides the same batch as that tick's serial *)
      if t = ticks / 2 then
        Server.hold server ~prefix:hold_prefix
          ~vrps:[ Vrp.make hold_prefix 9999 ];
      if t = (3 * ticks) / 4 then Server.release server ~prefix:hold_prefix;
      let _, ms = time_ms (fun () -> Server.flush ~domains server) in
      converge_ms := !converge_ms +. ms;
      check (Server.all_synced server) "sessions diverged after flush (sessions=%d tick=%d)"
        sessions t
    done;
    (Server.stats server, !converge_ms)
  in
  (* the pre-server baseline: every router synced by its own Session.serve
     call, every response encoded from scratch *)
  let run_baseline ~sessions ~churn =
    let cache = Session.create_cache () in
    let routers = List.init sessions (fun _ -> Session.create_router ()) in
    let bytes = ref 0 in
    let sync_all () =
      List.iter
        (fun r ->
          let q =
            match Session.router_session r with
            | Some sid ->
              Pdu.encode
                (Pdu.Serial_query { session_id = sid; serial = Session.router_serial r })
            | None -> Pdu.encode Pdu.Reset_query
          in
          let resp = Session.serve cache q in
          bytes := !bytes + String.length resp;
          check (Session.apply_response r resp = `Synced) "baseline reset")
        routers
    in
    Session.publish cache (set_at ~churn 0);
    sync_all ();
    for t = 1 to ticks do
      Session.publish cache (set_at ~churn t);
      sync_all ()
    done;
    !bytes
  in
  let cells =
    List.concat_map
      (fun sessions ->
        List.map (fun churn -> (sessions, churn, run_cell ~sessions ~churn ~domains:1))
          churn_levels)
      session_counts
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "sessions"; "churn"; "serials"; "enc B/serial"; "bytes sent"; "ms/batch";
        "sess-syncs/s" ]
  in
  let per_serial (st : Server.stats) =
    float_of_int st.Server.bytes_encoded /. float_of_int (max 1 st.Server.serial_bumps)
  in
  List.iter
    (fun (sessions, churn, ((st : Server.stats), ms)) ->
      let batches = max 1 st.Server.notify_batches in
      Table.add_row t
        [ string_of_int sessions; string_of_int churn;
          string_of_int st.Server.serial_bumps;
          Printf.sprintf "%.0f" (per_serial st);
          string_of_int st.Server.bytes_sent;
          Printf.sprintf "%.2f" (ms /. float_of_int batches);
          Printf.sprintf "%.0f"
            (float_of_int (sessions * batches) /. (max 1e-6 ms /. 1000.)) ])
    cells;
  Table.print t;
  (* bytes encoded per serial must be flat in the session count: the
     workload is identical, so the counters must be *equal*, not close.  So
     must the transitions: sessions attached together share every one. *)
  List.iter
    (fun churn ->
      let stats_of want =
        List.find_map
          (fun (s, c, ((st : Server.stats), _)) -> if s = want && c = churn then Some st else None)
          cells
        |> Option.get
      in
      let lo = stats_of (List.hd session_counts) and hi = stats_of (last session_counts) in
      List.iter
        (fun (what, count) ->
          check (count lo = count hi) "%s varies with session count at churn %d (%d vs %d)" what
            churn (count lo) (count hi))
        [ ("bytes encoded", fun (st : Server.stats) -> st.Server.bytes_encoded);
          ("transitions", fun (st : Server.stats) -> st.Server.transitions) ])
    churn_levels;
  (* the acceptance bar: at the big session count the shared buffers must
     beat per-session encoding by >= 50x *)
  let big = if quick then 128 else 1024 in
  let churn0 = List.hd churn_levels in
  let baseline_bytes = run_baseline ~sessions:big ~churn:churn0 in
  let server_bytes =
    List.find_map
      (fun (s, c, ((st : Server.stats), _)) ->
        if s = big && c = churn0 then Some st.Server.bytes_encoded else None)
      cells
    |> Option.get
  in
  let reduction = float_of_int baseline_bytes /. float_of_int (max 1 server_bytes) in
  Printf.printf
    "\nper-session baseline at %d sessions: %d bytes encoded vs %d shared (%.0fx)\n"
    big baseline_bytes server_bytes reduction;
  check (not (reduction < 50.)) "only %.1fx encode reduction at %d sessions" reduction big;
  (* Domains must be invisible in the accounting: same stats to the byte.
     The sweep also times them, on a mid-sized cell and on the largest. *)
  let domain_counts = [ 1; 2; 4 ] in
  let sweep_cells = [ (min big 256, churn0); (last session_counts, last churn_levels) ] in
  let sweep =
    List.map
      (fun (sessions, churn) ->
        let runs =
          List.map (fun domains -> run_cell ~sessions ~churn ~domains) domain_counts
        in
        let st1, _ = List.hd runs in
        List.iter2
          (fun domains (st, _) ->
            check (st = st1) "accounting changed under %d domains (%d sessions, churn %d)" domains
              sessions churn)
          domain_counts runs;
        let ms_per_batch =
          List.map
            (fun ((st : Server.stats), ms) ->
              ms /. float_of_int (max 1 st.Server.notify_batches))
            runs
        in
        (sessions, churn, ms_per_batch))
      sweep_cells
  in
  let dt =
    Table.create
      ~aligns:(List.init (2 + List.length domain_counts) (fun _ -> Table.Right))
      ("sessions" :: "churn"
       :: List.map (Printf.sprintf "ms/batch @%d dom") domain_counts)
  in
  List.iter
    (fun (sessions, churn, ms) ->
      Table.add_row dt
        (string_of_int sessions :: string_of_int churn
         :: List.map (Printf.sprintf "%.2f") ms))
    sweep;
  Printf.printf "\ndomain sweep (%s): accounting identical to the byte\n\n"
    (String.concat "/" (List.map string_of_int domain_counts));
  Table.print dt;
  let open Json in
  let cell (sessions, churn, ((st : Server.stats), ms)) =
    let batches = max 1 st.Server.notify_batches in
    Object
      [ ("sessions", Int sessions); ("churn", Int churn); ("serials", Int st.Server.serial_bumps);
        ("notify_batches", Int st.Server.notify_batches);
        ("bytes_encoded", Int st.Server.bytes_encoded);
        ("bytes_encoded_per_serial", Fixed (1, per_serial st));
        ("bytes_sent", Int st.Server.bytes_sent); ("replays", Int st.Server.replays);
        ("transitions", Int st.Server.transitions);
        ("ms_per_batch", Fixed (3, ms /. float_of_int batches));
        ( "session_syncs_per_sec",
          Fixed (0, float_of_int (sessions * batches) /. (max 1e-6 ms /. 1000.)) ) ]
  in
  let sweep_cell (sessions, churn, ms) =
    Object
      [ ("sessions", Int sessions); ("churn", Int churn);
        ("ms_per_batch", list (fun x -> Fixed (3, x)) ms) ]
  in
  Some
    (Object
       [ ("experiment", String "rtr"); ("ticks", Int ticks); ("universe", Int universe);
         ("cells", list cell cells);
         ( "baseline",
           Object
             [ ("sessions", Int big); ("bytes_encoded", Int baseline_bytes);
               ("server_bytes_encoded", Int server_bytes); ("reduction", Fixed (1, reduction)) ] );
         ( "domain_sweep",
           Object
             [ ("domains", list int domain_counts); ("identical", Bool true);
               ("cells", list sweep_cell sweep) ] ) ])

(* ------------------------------------------------------------------ *)
(* Soak: long-run endurance                                            *)
(* ------------------------------------------------------------------ *)

(* Three arms, all driven through the canned soak scenario or the canned
   detection scenarios with the endurance knobs flipped:

   1. disk cost — segmented O(delta) saves + periodic compaction vs the
      pre-segmentation O(history) full snapshots, same ticks and churn;
   2. memory — Valcache residency under per-tick churn with epoch
      eviction on vs off (flat vs monotone), plus Gc live words across
      the segmented run;
   3. equivalence — the endurance knobs are pure cost: the split-view
      and restart detection timelines must produce byte-identical
      detection traces with the knobs on and off. *)

let detection_trace history =
  let line (r : Rpki_sim.Loop.tick_record) =
    Printf.sprintf "t%d vrps=%d issues=%d diff=%d serial=%d holds=%d fail=[%s] probe=[%s] regress=[%s] gossip=[%s]"
      r.Rpki_sim.Loop.time r.Rpki_sim.Loop.vrp_count r.Rpki_sim.Loop.issue_count
      (Vrp.diff_size r.Rpki_sim.Loop.vrp_diff)
      r.Rpki_sim.Loop.rtr_serial r.Rpki_sim.Loop.rtr_holds
      (String.concat ";" r.Rpki_sim.Loop.fetch_failures)
      (String.concat ";"
         (List.map
            (fun (n, ok) -> Printf.sprintf "%s:%b" n ok)
            r.Rpki_sim.Loop.probe_results))
      (String.concat ";"
         (List.map Relying_party.regression_to_string r.Rpki_sim.Loop.regressions))
      (match r.Rpki_sim.Loop.gossip_report with
      | None -> "-"
      | Some rep ->
        String.concat ";" (List.map Gossip.describe_alarm rep.Gossip.r_alarms))
  in
  String.concat "\n" (List.rev_map line history)

(* The persisted split-view setting with the endurance knobs: [on] is the
   segmented / evicting / compacting configuration, [off] the pre-refactor
   baseline (full snapshots, no eviction, no compaction). *)
let endurance_spec ~on =
  { Scenario.default with
    persist = true; valcache_evict = on; compact_every = (if on then 4 else 0);
    save_full = not on }

let soak_split_view_trace ~endurance =
  let sv = Scenario.build (endurance_spec ~on:endurance) in
  ignore (Scenario.run_split_view ~attack_at:3 ~ticks:10 sv);
  detection_trace (Rpki_sim.Loop.history sv.Scenario.sim)

let soak_restart_trace ~endurance =
  let rig = Scenario.build { (endurance_spec ~on:endurance) with grace = 0 } in
  ignore (Scenario.run_rollback ~restart_at:6 ~ticks:12 rig);
  detection_trace (Rpki_sim.Loop.history rig.Scenario.sim)

let soak ~quick =
  (* --- arm 1: disk bytes per save, segmented vs full snapshots --- *)
  let ticks = if quick then 400 else 5000 in
  (* the full-snapshot baseline's per-save cost grows with the log, so a
     shorter baseline run UNDERSTATES it: the reported ratio is a
     conservative lower bound (and the quick arms are same-length) *)
  let full_ticks = if quick then 400 else 1000 in
  let soak_spec = Scenario.default_soak.Scenario.sk_spec in
  let base_cfg =
    { Scenario.sk_ticks = ticks; sk_churn_every = 6; sk_sample_every = max 1 (ticks / 10);
      sk_spec = { soak_spec with Scenario.compact_every = (if quick then 64 else 256) } }
  in
  Printf.printf "running segmented arm (%d ticks)...\n%!" ticks;
  let seg = Scenario.run_soak ~config:base_cfg () in
  Printf.printf "running full-snapshot baseline (%d ticks)...\n%!" full_ticks;
  let full =
    Scenario.run_soak
      ~config:
        { base_cfg with
          Scenario.sk_ticks = full_ticks; sk_sample_every = max 1 (full_ticks / 10);
          sk_spec = { soak_spec with Scenario.save_full = true; compact_every = 0 } }
      ()
  in
  let ratio = full.Scenario.so_bytes_per_save /. Float.max 1.0 seg.Scenario.so_bytes_per_save in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "mode"; "ticks"; "saves"; "bytes/save"; "final snap B"; "final chain B" ]
  in
  List.iter
    (fun (name, (r : Scenario.soak_report)) ->
      let s = last r.Scenario.so_samples in
      Table.add_row t
        [ name; string_of_int r.Scenario.so_config.Scenario.sk_ticks;
          string_of_int r.Scenario.so_saves;
          Printf.sprintf "%.0f" r.Scenario.so_bytes_per_save;
          string_of_int s.Scenario.so_snapshot_bytes;
          string_of_int s.Scenario.so_chain_bytes ])
    [ ("segmented+compact", seg); ("full snapshots", full) ];
  Table.print t;
  Printf.printf
    "\nbytes-per-save ratio (full / segmented): %.1fx%s\n" ratio
    (if full_ticks < ticks then
       Printf.sprintf
         " (baseline truncated at %d ticks; its per-save cost grows with the \
          log, so this is a lower bound)"
         full_ticks
     else "");
  let min_ratio = if quick then 3.0 else 10.0 in
  check (not (ratio < min_ratio)) "segmented saves only %.1fx cheaper (need >= %.0fx)" ratio
    min_ratio;
  (* Gc flatness across the segmented run: the last sample's live words
     must not have drifted far above the first post-warmup sample's. *)
  (match seg.Scenario.so_samples with
  | warm :: _ :: _ ->
    let final = last seg.Scenario.so_samples in
    let growth =
      float_of_int final.Scenario.so_live_words
      /. float_of_int (max 1 warm.Scenario.so_live_words)
    in
    Printf.printf "Gc live words: %d (t%d) -> %d (t%d), growth %.2fx\n"
      warm.Scenario.so_live_words warm.Scenario.so_tick
      final.Scenario.so_live_words final.Scenario.so_tick growth
  | _ -> ());
  (* --- arm 2: Valcache residency under churn, eviction on vs off --- *)
  let res_ticks = if quick then 300 else 360 in
  let res_cfg =
    { Scenario.sk_ticks = res_ticks; sk_churn_every = 1;
      sk_sample_every = max 1 (res_ticks / 6);
      sk_spec =
        { soak_spec with
          Scenario.source =
            Scenario.Section6
              { Scenario.canned with validity = Some 48; refresh_interval = Some 48 } } }
  in
  Printf.printf "\nrunning residency arm (2 x %d churned ticks)...\n%!" res_ticks;
  let evict_on = Scenario.run_soak ~config:res_cfg () in
  let evict_off =
    Scenario.run_soak
      ~config:
        { res_cfg with
          Scenario.sk_spec = { res_cfg.Scenario.sk_spec with Scenario.valcache_evict = false } }
      ()
  in
  let resident (r : Scenario.soak_report) =
    List.filter_map
      (fun (s : Scenario.soak_sample) ->
        Option.map
          (fun (rs : Valcache.residency) ->
            (s.Scenario.so_tick, rs.Valcache.rs_verdicts + rs.Valcache.rs_outcomes,
             rs.Valcache.rs_verdicts_evicted + rs.Valcache.rs_outcomes_evicted))
          s.Scenario.so_residency)
      r.Scenario.so_samples
  in
  let on_curve = resident evict_on and off_curve = resident evict_off in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "tick"; "resident (evict)"; "evicted"; "resident (no evict)" ]
  in
  List.iter2
    (fun (tk, on_res, on_ev) (_, off_res, _) ->
      Table.add_row t
        [ string_of_int tk; string_of_int on_res; string_of_int on_ev;
          string_of_int off_res ])
    on_curve off_curve;
  Table.print t;
  let final3 l = match List.rev l with (_, r, _) :: _ -> r | [] -> 0 in
  let mid3 l = match List.nth_opt l (List.length l / 2) with Some (_, r, _) -> r | None -> 0 in
  let on_final = final3 on_curve and off_final = final3 off_curve in
  check (on_final < off_final) "eviction did not reduce Valcache residency under churn";
  check (on_final <= 2 * max 1 (mid3 on_curve))
    "evicting residency still growing (not flat under churn)";
  check (off_final >= mid3 off_curve) "non-evicting residency unexpectedly shrank";
  Printf.printf
    "\nResidency after %d ticks of per-tick churn: %d entries with eviction\n\
     (%d dropped over the run) vs %d without — flat vs monotone.\n"
    res_ticks on_final
    (match List.rev on_curve with (_, _, e) :: _ -> e | [] -> 0)
    off_final;
  (* --- arm 3: detection traces are invariant under the knobs --- *)
  let sv_on = soak_split_view_trace ~endurance:true in
  let sv_off = soak_split_view_trace ~endurance:false in
  check (String.equal sv_on sv_off) "split-view detection trace changed under endurance knobs";
  let rs_on = soak_restart_trace ~endurance:true in
  let rs_off = soak_restart_trace ~endurance:false in
  check (String.equal rs_on rs_off) "restart detection trace changed under endurance knobs";
  Printf.printf
    "Detection traces byte-identical with endurance knobs on/off:\n\
     split-view arm (%d trace bytes), restart arm (%d trace bytes).\n"
    (String.length sv_on) (String.length rs_on);
  let open Json in
  let sample (s : Scenario.soak_sample) =
    Object
      ([ ("tick", Int s.Scenario.so_tick); ("live_words", Int s.Scenario.so_live_words);
         ("snapshot_bytes", Int s.Scenario.so_snapshot_bytes);
         ("chain_bytes", Int s.Scenario.so_chain_bytes); ("segments", Int s.Scenario.so_segments);
         ("save_bytes", Int s.Scenario.so_save_bytes); ("log_size", Int s.Scenario.so_log_size) ]
      @
      match s.Scenario.so_residency with
      | None -> []
      | Some rs ->
        [ ("resident", Int (rs.Valcache.rs_verdicts + rs.Valcache.rs_outcomes));
          ("evicted", Int (rs.Valcache.rs_verdicts_evicted + rs.Valcache.rs_outcomes_evicted)) ])
  in
  let report (r : Scenario.soak_report) =
    let config = r.Scenario.so_config in
    Object
      [ ("ticks", Int config.Scenario.sk_ticks);
        ("churn_every", Int config.Scenario.sk_churn_every);
        ("compact_every", Int config.Scenario.sk_spec.Scenario.compact_every);
        ("evict", Bool config.Scenario.sk_spec.Scenario.valcache_evict);
        ("full_snapshots", Bool config.Scenario.sk_spec.Scenario.save_full);
        ("saves", Int r.Scenario.so_saves);
        ("total_save_bytes", Int r.Scenario.so_total_save_bytes);
        ("bytes_per_save", Fixed (1, r.Scenario.so_bytes_per_save));
        ("samples", list sample r.Scenario.so_samples) ]
  in
  Some
    (Object
       [ ("experiment", String "soak"); ("bytes_per_save_ratio", Fixed (1, ratio));
         ("segmented", report seg); ("full", report full); ("evict_on", report evict_on);
         ("evict_off", report evict_off);
         ( "traces_identical",
           Object
             [ ("split_view", Bool (String.equal sv_on sv_off));
               ("restart", Bool (String.equal rs_on rs_off)) ] ) ])

(* ------------------------------------------------------------------ *)
(* Scale: detection on generated internet-scale worlds                 *)
(* ------------------------------------------------------------------ *)

(* The world-generator sweep: grow a preferential-attachment AS graph,
   synthesize an RPKI universe onto it (RIR root, per-ISP CAs over the
   heavy customer cones, cover ROA on the deepest stub), place monitor
   vantages by degree, and re-run the split-view attack end to end at
   each size.  Published per size: world synthesis and rig construction
   time, per-tick convergence time of the closed loop (transport priced
   off the generated data plane), fork detection latency relative to the
   attack tick, and the exported fork-evidence proof bytes.  Hard bar:
   detection must succeed at EVERY size under degree placement — the
   curve is only interesting if the mechanism survives the scale. *)
let scale ~quick =
  let module World = Rpki_world.Synthesis in
  let module Placement = Rpki_world.Placement in
  let sizes = if quick then [ 200; 400 ] else [ 200; 500; 1000; 2000; 4000 ] in
  let ticks = 10 and attack_at = 3 and monitors = 3 and grace = 4 in
  let run_size ases =
    let spec =
      { World.default_spec with
        World.graph = { As_graph.default_spec with As_graph.ases; seed = 11 } }
    in
    let w0, synth_ms = time_ms (fun () -> World.build spec) in
    let g = World.graph w0 in
    let stats = As_graph.degree_stats g in
    let rig, rig_ms =
      time_ms (fun () ->
          Scenario.build
            { Scenario.default with
              source = Scenario.World w0; monitors; grace; placement = Placement.By_degree })
    in
    let sim = rig.Scenario.sim in
    let atk =
      Split_view.plan ~authority:rig.Scenario.victim_ca
        ~target_filename:rig.Scenario.victim_roa ()
    in
    let tick_ms = ref [] in
    for now = 1 to ticks do
      if now = attack_at then Split_view.apply atk (Rpki_sim.Loop.transport sim);
      let _, ms = time_ms (fun () -> Rpki_sim.Loop.step sim ~now) in
      tick_ms := ms :: !tick_ms
    done;
    let tick_ms = List.rev !tick_ms in
    let avg_tick = List.fold_left ( +. ) 0. tick_ms /. float_of_int ticks in
    let max_tick = List.fold_left Float.max 0. tick_ms in
    let fork = Rpki_sim.Loop.first_fork_tick sim in
    let evidence = first_fork_evidence sim in
    (* the acceptance bar: degree-placed monitors must catch the fork at
       every size, with exportable proof *)
    (match fork with
    | None -> check false "fork undetected at %d ASes" ases
    | Some tk ->
      check
        (not (tk < attack_at || tk > attack_at + grace + 2))
        "fork tick t%d out of window at %d ASes" tk ases);
    check (String.length evidence <> 0) "no exportable fork evidence at %d ASes" ases;
    let latency = match fork with Some tk -> tk - attack_at | None -> -1 in
    ( ases, List.length (World.cas w0), stats.As_graph.d_max, stats.As_graph.d_median,
      synth_ms, rig_ms, avg_tick, max_tick, latency, String.length evidence )
  in
  let cells = List.map run_size sizes in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "ASes"; "CAs"; "d_max"; "d_med"; "synth ms"; "rig ms"; "ms/tick"; "max tick";
        "detect +t"; "proof B" ]
  in
  List.iter
    (fun (ases, cas, dmax, dmed, synth_ms, rig_ms, avg_tick, max_tick, latency, proof) ->
      Table.add_row t
        [ string_of_int ases; string_of_int cas; string_of_int dmax; string_of_int dmed;
          Printf.sprintf "%.0f" synth_ms; Printf.sprintf "%.0f" rig_ms;
          Printf.sprintf "%.1f" avg_tick; Printf.sprintf "%.1f" max_tick;
          Printf.sprintf "%d" latency; string_of_int proof ])
    cells;
  Table.print t;
  Printf.printf
    "\nEvery size: stealth fork injected at t%d, detected by the degree-placed\n\
     gossip mesh within the grace window, with an exportable evidence bundle.\n\
     Detection latency is flat in topology size; per-tick cost tracks the\n\
     announcement count (one RIB per published prefix), not the AS count.\n"
    attack_at;
  let open Json in
  let size (ases, cas, dmax, dmed, synth_ms, rig_ms, avg_tick, max_tick, latency, proof) =
    Object
      [ ("ases", Int ases); ("cas", Int cas); ("d_max", Int dmax); ("d_median", Int dmed);
        ("synth_ms", Fixed (1, synth_ms)); ("rig_ms", Fixed (1, rig_ms));
        ("avg_tick_ms", Fixed (2, avg_tick)); ("max_tick_ms", Fixed (2, max_tick));
        ("detection_latency", Int latency); ("evidence_bytes", Int proof) ]
  in
  Some
    (Object
       [ ("experiment", String "scale"); ("ticks", Int ticks); ("attack_at", Int attack_at);
         ("monitors", Int monitors); ("placement", String "degree"); ("sizes", list size cells) ])

(* ------------------------------------------------------------------ *)
(* Fault mix: corpus-weighted faults x unsafe-VRP policy               *)
(* ------------------------------------------------------------------ *)

(* Two questions, one harness.

   The downgrade grid: make one sub-CA's publication point unreachable and
   sweep what the relying party does with the VRPs that covered its space
   (accept / warn / reject, Routinator's --unsafe-vrps) against whether
   stale fallback is allowed.  The interesting cell is reject without
   stale: dropping the covering ROA restores the victim's route (the Side
   Effect 6 outage heals)... and silently lets a hijack of the same space
   propagate, because the prefix flips from INVALID to UNKNOWN for
   everyone.  Warn keeps the protection and surfaces the hazard instead.

   The corpus sweep: the fault-mix engine rolls every authority each tick
   against the empirical error distribution (expired CRLs 47x, missing
   manifests 20x, seqnum gaps 18x, ... from the checked-in corpus table)
   and we read the degradation off the loop per rate x policy.  A rate-0
   engine run is asserted trace-identical to a run with no engine. *)
let faultmix ~quick =
  let ticks = if quick then 10 else 14 in
  let outage_at = 4 in
  let as_attacker = 64666 in
  let legit = Route.make (V4.p "63.174.16.0/20") Model.as_continental in
  let hijack = Route.make (V4.p "63.174.16.0/20") as_attacker in
  let unsafe_policies =
    [ ("accept", Relying_party.Unsafe_accept);
      ("warn", Relying_party.Unsafe_warn);
      ("reject", Relying_party.Unsafe_reject) ]
  in
  let fetch_policies =
    [ ("default", Relying_party.default_policy);
      ("no-stale",
       { Relying_party.default_policy with Relying_party.use_stale = false }) ]
  in
  (* --- the downgrade grid ------------------------------------------ *)
  let run_cell ~unsafe ~fetch_policy =
    let rig =
      Scenario.build
        { Scenario.section6 with
          fetch_policy = Some { fetch_policy with Relying_party.unsafe } }
    in
    let sim = rig.Scenario.sim in
    List.init ticks (fun i ->
        let now = i + 1 in
        if now = outage_at then
          Transport.set_fault (Rpki_sim.Loop.transport sim)
            ~uri:(Pub_point.uri (Authority.pub rig.Scenario.victim_ca))
            Transport.Unreachable;
        let r = Rpki_sim.Loop.step sim ~now in
        let result = Option.get (Relying_party.last_result sim.Rpki_sim.Loop.rp) in
        ( now,
          Origin_validation.classify result.Relying_party.index legit,
          Origin_validation.classify result.Relying_party.index hijack,
          r.Rpki_sim.Loop.unsafe_count,
          result ))
  in
  let grid =
    List.map
      (fun (fn, fp) ->
        ( fn,
          List.map
            (fun (un, up) -> (un, run_cell ~unsafe:up ~fetch_policy:fp))
            unsafe_policies ))
      fetch_policies
  in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "fetch"; "unsafe"; "victim route"; "hijack route"; "unsafe VRPs"; "VRPs" ]
  in
  List.iter
    (fun (fn, cells) ->
      List.iter
        (fun (un, tl) ->
          let _, lg, hj, unsafe_n, result = last tl in
          Table.add_row t
            [ fn; un;
              Origin_validation.state_to_string lg;
              Origin_validation.state_to_string hj;
              string_of_int unsafe_n;
              string_of_int (List.length result.Relying_party.vrps) ])
        cells)
    grid;
  Table.print t;
  (* the acceptance bar: the no-stale column must show the downgrade
     interaction — reject restores the victim's route and loses the
     hijack protection; warn keeps the protection and reports the unsafe
     set; accept reports nothing *)
  let cell fn un = List.assoc un (List.assoc fn grid) in
  let _, lg_a, hj_a, un_a, res_a = last (cell "no-stale" "accept") in
  let _, lg_w, hj_w, un_w, res_w = last (cell "no-stale" "warn") in
  let _, lg_r, hj_r, un_r, res_r = last (cell "no-stale" "reject") in
  check
    (lg_a = Origin_validation.Invalid && hj_a = Origin_validation.Invalid && un_a = 0)
    "accept cell should go invalid with no unsafe reporting";
  check
    (lg_w = Origin_validation.Invalid && hj_w = Origin_validation.Invalid && un_w > 0)
    "warn cell should keep protection and report unsafe VRPs";
  check
    (lg_r = Origin_validation.Unknown && hj_r = Origin_validation.Unknown && un_r > 0)
    "reject cell should flip the space to unknown";
  check (res_w.Relying_party.vrps = res_a.Relying_party.vrps)
    "warn must not change the effective VRP set";
  check
    (List.for_all
       (fun v -> List.exists (fun u -> Vrp.compare u v = 0) res_a.Relying_party.vrps)
       res_r.Relying_party.vrps)
    "reject's VRP set must be a subset of accept's";
  Printf.printf
    "\nWith stale fallback the outage is masked (cached data keeps serving) and\n\
     no VRP is unsafe.  Without it, Continental's resources join the failed\n\
     set: ACCEPT keeps Sprint's covering /12-13 ROA, so both the victim route\n\
     and the hijack stay INVALID (outage, but protected).  REJECT drops the\n\
     covering VRP: the victim route heals to UNKNOWN — and so does the\n\
     hijack, which now propagates.  WARN = accept + %d unsafe VRP(s) surfaced.\n"
    un_w;
  (* --- rate-0 is trace-identical to no-engine ----------------------- *)
  let trace_of records =
    String.concat ";"
      (List.map
         (fun (r : Rpki_sim.Loop.tick_record) ->
           Printf.sprintf "%d:%d:%d:%d:%d:%d:%b" r.Rpki_sim.Loop.time
             r.Rpki_sim.Loop.vrp_count r.Rpki_sim.Loop.issue_count
             r.Rpki_sim.Loop.rtr_serial r.Rpki_sim.Loop.sync_elapsed
             r.Rpki_sim.Loop.unsafe_count r.Rpki_sim.Loop.budget_exhausted)
         records)
  in
  let rig0 =
    Scenario.build
      { Scenario.section6 with
        fault_mix = Some { Scenario.seed = 0x5eed; rate = 0.; repair_after = None } }
  in
  let with_engine = List.init ticks (fun i -> snd (Scenario.step rig0 ~now:(i + 1))) in
  let sim0 = (Scenario.build Scenario.section6).Scenario.sim in
  let without_engine = List.init ticks (fun i -> Rpki_sim.Loop.step sim0 ~now:(i + 1)) in
  let rate0_identical = trace_of with_engine = trace_of without_engine in
  check rate0_identical "rate-0 engine run diverged from the engine-less run";
  Printf.printf "\nrate-0 engine run: trace-identical to a run with no engine.\n";
  (* --- the corpus sweep: fault rate x unsafe policy ----------------- *)
  let rates = if quick then [ 0.; 0.3 ] else [ 0.; 0.15; 0.4 ] in
  let mix_ticks = if quick then 12 else 24 in
  (* the sweep runs without stale fallback, so the corpus's transport
     categories (dns / refused / timeout, ~10% of draws) open genuine
     failed-CA windows for the unsafe analysis instead of being masked by
     the cache *)
  let run_mix ~rate ~unsafe =
    let rig =
      Scenario.build
        { Scenario.section6 with
          fetch_policy =
            Some { (List.assoc "no-stale" fetch_policies) with Relying_party.unsafe };
          fault_mix = Some { Scenario.seed = 7; rate; repair_after = None } }
    in
    let records = List.init mix_ticks (fun i -> snd (Scenario.step rig ~now:(i + 1))) in
    let engine = Option.get rig.Scenario.engine in
    let issues = sum (fun r -> r.Rpki_sim.Loop.issue_count) records in
    let max_unsafe = List.fold_left (fun acc r -> max acc r.Rpki_sim.Loop.unsafe_count) 0 records in
    ( Fault_mix.injected engine,
      Fault_mix.repaired engine,
      Fault_mix.counts engine,
      float_of_int issues /. float_of_int mix_ticks,
      max_unsafe,
      (last records).Rpki_sim.Loop.vrp_count )
  in
  let mix =
    List.concat_map
      (fun rate ->
        List.map
          (fun (un, up) -> (rate, un, run_mix ~rate ~unsafe:up))
          unsafe_policies)
      rates
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "rate"; "unsafe"; "injected"; "repaired"; "issues/tick"; "max unsafe"; "VRPs" ]
  in
  List.iter
    (fun (rate, un, (inj, rep, _, ipt, mu, vrps)) ->
      Table.add_row t
        [ Printf.sprintf "%.2f" rate; un; string_of_int inj; string_of_int rep;
          Printf.sprintf "%.1f" ipt; string_of_int mu; string_of_int vrps ])
    mix;
  Table.print t;
  (* per-category injections at the heaviest swept rate, against the
     corpus weights they were drawn from *)
  let heavy_rate = List.fold_left max 0. rates in
  (match
     List.find_opt (fun (rate, un, _) -> rate = heavy_rate && un = "warn") mix
   with
  | None -> ()
  | Some (_, _, (_, _, counts, _, _, _)) ->
    Printf.printf "\ninjections at rate %.2f (corpus weight in parens):\n" heavy_rate;
    List.iter
      (fun (c, n) ->
        Printf.printf "  %-22s %3d  (%d/126)\n" (Fault_corpus.to_string c) n
          (match List.assoc_opt c Fault_corpus.weights with Some w -> w | None -> 0))
      counts);
  (* --- machine-readable output -------------------------------------- *)
  let open Json in
  let state s = String (Origin_validation.state_to_string s) in
  let tick (now, lg, hj, unsafe_n, result) =
    Object
      [ ("tick", Int now); ("victim", state lg); ("hijack", state hj); ("unsafe", Int unsafe_n);
        ("vrps", Int (List.length result.Relying_party.vrps)) ]
  in
  let downgrade =
    List.concat_map
      (fun (fn, cells) ->
        List.map
          (fun (un, tl) ->
            Object [ ("fetch", String fn); ("unsafe", String un); ("timeline", list tick tl) ])
          cells)
      grid
  in
  let mix_cell (rate, un, (inj, rep, counts, ipt, mu, vrps)) =
    Object
      [ ("rate", Fixed (2, rate)); ("unsafe", String un); ("injected", Int inj);
        ("repaired", Int rep);
        ("counts", Object (List.map (fun (c, n) -> (Fault_corpus.to_string c, Int n)) counts));
        ("issues_per_tick", Fixed (2, ipt)); ("max_unsafe", Int mu); ("final_vrps", Int vrps) ]
  in
  let json =
    Object
      [ ("experiment", String "faultmix"); ("ticks", Int ticks); ("outage_at", Int outage_at);
        ("mix_ticks", Int mix_ticks); ("rate0_identical", Bool rate0_identical);
        ("downgrade", List downgrade); ("mix", list mix_cell mix) ]
  in
  (* every swept axis must be present in the export *)
  let rec holds ((k, v) as member) = function
    | Object ms ->
      List.exists (fun (k', v') -> (k' = k && to_string v' = to_string v) || holds member v') ms
    | List vs -> List.exists (holds member) vs
    | _ -> false
  in
  List.iter
    (fun ((k, v) as member) ->
      check (holds member json) "JSON export lacks %s" (to_string (String k) ^ ":" ^ to_string v))
    (List.map (fun (un, _) -> ("unsafe", String un)) unsafe_policies
    @ List.map (fun (fn, _) -> ("fetch", String fn)) fetch_policies
    @ List.map (fun rate -> ("rate", Fixed (2, rate))) rates);
  Some json

(* ------------------------------------------------------------------ *)
(* Gossip at scale: overlays, round-level caching, Byzantine vantages   *)
(* ------------------------------------------------------------------ *)

(* Three arms.

   Overlay grid (canned scenario): the loop's own gossip is parked beyond
   the horizon — the same trick the multivantage arm uses to park it
   entirely — so the bench can drive Gossip.round by hand and time it in
   isolation from validation.  Sweeps overlay x vantage count under the
   stealthy split view, measuring pulls per round, gossip wall-clock,
   head verifications executed vs memoized, proof-cache hits and the
   detection round.

   Byzantine sweep: f equivocating monitors of n vantages, each serving
   the victim a shadow log mirroring the victim's forked view while
   honest peers keep seeing the honest one (Rpki_attack.Equivocator).
   Detection is then pure reachability: it survives exactly while the
   victim keeps at least one honest overlay neighbor — the BGP-Sentry
   honest-majority threshold, checked cell by cell.

   World arm (full mode): a PR 8 generated world re-run under a partial
   mesh, so the overlay win is not an artifact of the canned topology. *)

type gossip_cell = {
  gc_n : int;
  gc_overlay : Gossip.Overlay.spec;
  gc_pulls : int;          (* per round, all vantages alive *)
  gc_cold_ms : float;      (* round 1: lazy per-log keygen + first proofs *)
  gc_ms : float;           (* warm gossip wall-clock, rounds 2..ticks *)
  gc_fork : int option;    (* round of first Fork alarm *)
  gc_verifies : int;
  gc_verifies_saved : int;
  gc_proofs_built : int;
  gc_proofs_reused : int;
  gc_proof_bytes : int;
}

let gossip ~quick =
  let ticks = 6 and attack_at = 3 in
  let overlay_label = Gossip.Overlay.to_string in
  let fork_delta = function None -> "-" | Some tk -> string_of_int (tk - attack_at) in
  (* --- arm 1: overlay x n on the canned scenario ------------------- *)
  let counts = if quick then [ 16; 64 ] else [ 16; 64; 128 ] in
  let overlays =
    if quick then
      [ Gossip.Overlay.Full_mesh; Gossip.Overlay.K_regular 2; Gossip.Overlay.K_regular 4 ]
    else
      [ Gossip.Overlay.Full_mesh; Gossip.Overlay.K_regular 2; Gossip.Overlay.K_regular 4;
        Gossip.Overlay.Star 3; Gossip.Overlay.Random_peers 3 ]
  in
  (* The split view at [attack_at] with the loop's own gossip parked past
     the horizon, so each round is run and timed here.  Round 1 pays the
     one-time lazy keygen for every vantage's log — the same n signatures
     under any overlay — so it is reported apart from the warm rounds the
     steady-state claim is about. *)
  let run_overlay_cell ~overlay spec =
    let sv = Scenario.build { spec with Scenario.gossip_period = ticks + 1; overlay } in
    let sim = sv.Scenario.sim in
    let g = Option.get (Rpki_sim.Loop.gossip_mesh sim) in
    let atk =
      Split_view.plan ~authority:sv.Scenario.victim_ca ~target_filename:sv.Scenario.victim_roa ()
    in
    let reports = ref [] and cold = ref 0. and warm = ref 0. and fork = ref None in
    for now = 1 to ticks do
      if now = attack_at then Split_view.apply atk (Rpki_sim.Loop.transport sim);
      ignore (Rpki_sim.Loop.step sim ~now);
      let rep, ms = time_ms (fun () -> Gossip.round g ~now) in
      if now = 1 then cold := ms else warm := !warm +. ms;
      if !fork = None && List.exists Gossip.is_fork rep.Gossip.r_alarms then fork := Some now;
      reports := rep :: !reports
    done;
    let sum f = sum f !reports in
    { gc_n = spec.Scenario.monitors + 1; gc_overlay = overlay;
      gc_pulls = (match !reports with last :: _ -> last.Gossip.r_pulls | [] -> 0);
      gc_cold_ms = !cold; gc_ms = !warm; gc_fork = !fork;
      gc_verifies = sum (fun r -> r.Gossip.r_verifies);
      gc_verifies_saved = sum (fun r -> r.Gossip.r_verifies_saved);
      gc_proofs_built = sum (fun r -> r.Gossip.r_proofs_built);
      gc_proofs_reused = sum (fun r -> r.Gossip.r_proofs_reused);
      gc_proof_bytes = sum (fun r -> r.Gossip.r_proof_bytes) }
  in
  let grid =
    List.concat_map
      (fun n ->
        List.map
          (fun overlay -> run_overlay_cell ~overlay { Scenario.default with monitors = n - 1 })
          overlays)
      counts
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "n"; "overlay"; "pulls/round"; "detect +rounds"; "cold ms"; "warm ms"; "verifies";
        "memoized"; "proofs built"; "reused" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [ string_of_int c.gc_n; overlay_label c.gc_overlay; string_of_int c.gc_pulls;
          fork_delta c.gc_fork; Printf.sprintf "%.1f" c.gc_cold_ms;
          Printf.sprintf "%.1f" c.gc_ms;
          string_of_int c.gc_verifies; string_of_int c.gc_verifies_saved;
          string_of_int c.gc_proofs_built; string_of_int c.gc_proofs_reused ])
    grid;
  Table.print t;
  let cell n overlay =
    List.find (fun c -> c.gc_n = n && c.gc_overlay = overlay) grid
  in
  (* structural pull counts: the full mesh is n(n-1); a k-regular overlay
     with even k is exactly nk pulls a round — the O(n·k) claim *)
  List.iter
    (fun n ->
      let mesh = cell n Gossip.Overlay.Full_mesh in
      check (mesh.gc_pulls = n * (n - 1)) "full mesh at n=%d ran %d pulls" n mesh.gc_pulls;
      List.iter
        (fun k ->
          let c = cell n (Gossip.Overlay.K_regular k) in
          check (c.gc_pulls = n * k) "k=%d at n=%d ran %d pulls, wanted %d" k n c.gc_pulls (n * k))
        [ 2; 4 ];
      (* every overlay must still catch the stealth split view; the sparse
         k-regular ring within 2 rounds of the attack *)
      List.iter
        (fun overlay ->
          match (cell n overlay).gc_fork with
          | None -> check false "%s at n=%d missed the split view" (overlay_label overlay) n
          | Some tk ->
            check
              (not (overlay = Gossip.Overlay.K_regular 2 && tk - attack_at > 2))
              "k:2 at n=%d detected only %d rounds after attack" n (tk - attack_at))
        overlays)
    counts;
  (* the head-verify memo: one verification per served log per round
     instead of one per edge *)
  List.iter
    (fun n ->
      let mesh = cell n Gossip.Overlay.Full_mesh in
      check (mesh.gc_verifies <= ticks * (n + 1))
        "full mesh at n=%d verified %d heads (memo broken?)" n mesh.gc_verifies)
    counts;
  (* the acceptance bar, full mode: at n=128 a k=4 overlay does >= 8x fewer
     pulls and >= 5x less gossip wall-clock than the mesh, still detecting *)
  if not quick then begin
    let mesh = cell 128 Gossip.Overlay.Full_mesh and k4 = cell 128 (Gossip.Overlay.K_regular 4) in
    check (mesh.gc_pulls >= 8 * k4.gc_pulls) "k:4 pull reduction only %.1fx at n=128"
      (float_of_int mesh.gc_pulls /. float_of_int k4.gc_pulls);
    check
      (not (mesh.gc_ms < 5. *. k4.gc_ms))
      "k:4 warm wall-clock reduction only %.1fx at n=128 (%.1f vs %.1f ms)"
      (mesh.gc_ms /. k4.gc_ms) mesh.gc_ms k4.gc_ms;
    check (k4.gc_fork <> None) "k:4 at n=128 missed the split view";
    Printf.printf
      "n=128: k:4 vs mesh — %.1fx fewer pulls, %.1fx less warm gossip wall-clock, detected +%s rounds\n"
      (float_of_int mesh.gc_pulls /. float_of_int k4.gc_pulls)
      (mesh.gc_ms /. k4.gc_ms) (fork_delta k4.gc_fork)
  end;
  (* --- arm 2: the Byzantine sweep ---------------------------------- *)
  let byz_n = if quick then 10 else 16 in
  let byz_ticks = 8 in
  let byz_overlays =
    if quick then [ Gossip.Overlay.Full_mesh; Gossip.Overlay.K_regular 2; Gossip.Overlay.Star 3 ]
    else
      [ Gossip.Overlay.Full_mesh; Gossip.Overlay.K_regular 4; Gossip.Overlay.Star 3;
        Gossip.Overlay.Random_peers 3 ]
  in
  let byz_fs =
    if quick then [ 0; 2; 4 ] else [ 0; 3; 5; 7; 11; byz_n - 2 ]
  in
  (* the fork runs from the victim's FIRST sync: a victim with honest
     pre-attack history is self-evidencing (its own first-seen record
     conflicts with any mirrored shadow's delta and the victim itself
     raises the Fork), so a mid-history fork defeats the equivocators by
     construction.  From t1 the victim's log is forked from birth and
     detection reduces to honest adjacency — the threshold under test. *)
  let byz_attack_at = 1 in
  let run_byz_cell ~overlay ~f =
    let sv =
      Scenario.build { Scenario.default with monitors = byz_n - 1; overlay }
    in
    (* one fixed shuffle, first f: the Byzantine sets are nested, so the
       sweep reads as a threshold *)
    let byz =
      List.filteri
        (fun i _ -> i < f)
        (Rpki_util.Rng.shuffle (Rpki_util.Rng.create 0xb12a) sv.Scenario.monitor_names)
    in
    let equivocators = Scenario.equivocators sv byz in
    let { Scenario.honest_adjacent; _ } =
      Scenario.run_split_view ~equivocators ~attack_at:byz_attack_at ~ticks:byz_ticks sv
    in
    (f, overlay, byz, Rpki_sim.Loop.first_fork_tick sv.Scenario.sim, honest_adjacent)
  in
  let byz_cells =
    List.concat_map
      (fun overlay -> List.map (fun f -> run_byz_cell ~overlay ~f) byz_fs)
      byz_overlays
  in
  let bt =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left; Table.Left ]
      [ "overlay"; "byzantine f"; "of n"; "honest neighbor"; "fork detected" ]
  in
  List.iter
    (fun (f, overlay, _, detected, adj) ->
      Table.add_row bt
        [ overlay_label overlay; string_of_int f; string_of_int byz_n;
          (if adj then "yes" else "no");
          (match detected with Some tk -> Printf.sprintf "t%d" tk | None -> "missed") ])
    byz_cells;
  Printf.printf "\nByzantine equivocators: f of n=%d vantages serve the victim a forked shadow log\n"
    byz_n;
  Table.print bt;
  List.iter
    (fun (f, overlay, _, detected, adj) ->
      let label = overlay_label overlay in
      (* detection is exactly honest adjacency of the victim *)
      check (not (adj && detected = None)) "%s f=%d — honest neighbor but no detection" label f;
      check
        (not ((not adj) && detected <> None))
        "%s f=%d — detection without an honest neighbor?" label f;
      check (not (f = 0 && detected = None)) "%s f=0 undetected" label;
      (* the honest-majority bar: under f < n/2 the mesh and the k-regular
         ring keep the victim honest-connected, so detection must hold *)
      check
        (not
           (f < byz_n / 2
           && (overlay = Gossip.Overlay.Full_mesh
              || overlay = Gossip.Overlay.K_regular 4
              || overlay = Gossip.Overlay.K_regular 2)
           && detected = None))
        "%s f=%d < n/2 but detection failed" label f)
    byz_cells;
  (* --- arm 3 (full mode): a generated world under a partial mesh ---- *)
  let world_cells =
    if quick then []
    else begin
      List.map
        (fun overlay ->
          run_overlay_cell ~overlay
            { Scenario.default with
              source =
                Scenario.World (Rpki_world.Synthesis.build Rpki_world.Synthesis.default_spec);
              monitors = 32 })
        [ Gossip.Overlay.Full_mesh; Gossip.Overlay.K_regular 4 ]
    end
  in
  List.iter
    (fun c ->
      Printf.printf
        "world (n=%d, %s): %d pulls/round, %.1f warm gossip ms, detected +%s rounds\n"
        c.gc_n (overlay_label c.gc_overlay) c.gc_pulls c.gc_ms (fork_delta c.gc_fork);
      check (c.gc_fork <> None) "%s missed the split view on the generated world"
        (overlay_label c.gc_overlay))
    world_cells;
  (* --- JSON export -------------------------------------------------- *)
  let open Json in
  let overlay o = String (overlay_label o) in
  let cell_json c =
    Object
      [ ("n", Int c.gc_n); ("overlay", overlay c.gc_overlay); ("pulls_per_round", Int c.gc_pulls);
        ("cold_ms", Fixed (2, c.gc_cold_ms)); ("warm_gossip_ms", Fixed (2, c.gc_ms));
        ("fork_round", option int c.gc_fork);
        ("detect_rounds_after_attack", option (fun tk -> Int (tk - attack_at)) c.gc_fork);
        ("verifies", Int c.gc_verifies); ("verifies_saved", Int c.gc_verifies_saved);
        ("proofs_built", Int c.gc_proofs_built); ("proofs_reused", Int c.gc_proofs_reused);
        ("proof_bytes", Int c.gc_proof_bytes) ]
  in
  let byz_json (f, o, byz, detected, adj) =
    Object
      [ ("overlay", overlay o); ("f", Int f); ("n", Int byz_n);
        ("byzantine", list string byz); ("honest_adjacent", Bool adj);
        ("fork_tick", option int detected) ]
  in
  Some
    (Object
       [ ("experiment", String "gossip"); ("ticks", Int ticks); ("attack_at", Int attack_at);
         ("byzantine_attack_at", Int byz_attack_at); ("overlay_grid", list cell_json grid);
         ("byzantine_sweep", list byz_json byz_cells); ("world", list cell_json world_cells) ])
