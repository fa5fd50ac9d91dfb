(* The public monitor at work: snapshot diffs catch a stealth whack.

   Run with: dune exec examples/monitor_demo.exe

   A stealthy manipulator deletes Continental Broadband's ROA from the
   publication point without leaving a CRL trace — the quiet variant of
   the paper's whacking attacks.  A content monitor that diffs daily
   snapshots of every publication point still sees the object vanish.
   We then show the complementary blind spot: a stalling (Stalloris-style)
   transport adversary changes no published object at all, so the content
   diff stays silent — only the relying party's own staleness accounting
   raises the alarm. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

let print_alerts label alerts =
  Printf.printf "%s:\n" label;
  if alerts = [] then print_endline "  (nothing to report)"
  else List.iter (fun a -> Format.printf "  %a@." Rpki_monitor.Monitor.pp_alert a) alerts

let () =
  let m = Model.build () in
  let rp = Model.relying_party m in
  let target = Route.make (V4.p "63.174.16.0/22") 7341 in

  (* day 1: all quiet; the monitor takes its baseline snapshot *)
  let idx1 = (Relying_party.sync rp ~now:1 ~universe:m.Model.universe ()).Relying_party.index in
  Printf.printf "day 1: %s -> %s\n" (Route.to_string target)
    (Origin_validation.state_to_string (Origin_validation.classify idx1 target));
  let snap1 = Rpki_monitor.Monitor.take ~now:1 m.Model.universe in

  (* day 2: the ROA silently disappears — no revocation, no CRL entry *)
  Authority.stealth_delete_roa m.Model.continental ~filename:m.Model.roa_target22 ~now:2;
  let idx2 = (Relying_party.sync rp ~now:2 ~universe:m.Model.universe ()).Relying_party.index in
  Printf.printf "day 2: %s -> %s (ROA stealthily deleted)\n" (Route.to_string target)
    (Origin_validation.state_to_string (Origin_validation.classify idx2 target));

  let snap2 = Rpki_monitor.Monitor.take ~now:2 m.Model.universe in
  let alerts = Rpki_monitor.Monitor.diff ~before:snap1 ~after:snap2 in
  print_alerts "\nwhat the content monitor reports" alerts;
  Printf.printf "%d alarm(s): the deletion left no CRL trace, but the diff sees it.\n"
    (List.length (Rpki_monitor.Monitor.alarms alerts));

  (* day 3: a different adversary — nothing in the repository changes, the
     transport to Continental's publication point simply stalls *)
  let transport = Transport.create () in
  Transport.set_fault transport ~uri:(Pub_point.uri (Authority.pub m.Model.continental))
    (Transport.Stalling 1024);
  let result =
    Relying_party.sync rp ~now:3 ~universe:m.Model.universe ~transport
      ~policy:Relying_party.naive_policy ()
  in
  let snap3 = Rpki_monitor.Monitor.take ~now:3 m.Model.universe in
  print_alerts "\nday 3, stalled transport — what the content monitor reports"
    (Rpki_monitor.Monitor.diff ~before:snap2 ~after:snap3);
  print_alerts "what the relying party's staleness accounting reports"
    (Rpki_monitor.Monitor.staleness_alerts result);
  print_endline "\ncontent diffs catch misbehaving authorities; staleness accounting";
  print_endline "catches misbehaving networks. A monitor needs both.";

  (* day 4: the stealthiest adversary yet — a split view.  Continental
     serves one targeted vantage a re-signed copy of its repository with
     the /20 ROA gone, and everyone else the honest contents.  Nothing in
     the universe changes (the fork lives on the victim's transport), so
     the content monitor is structurally blind; the victim's fetch is live
     and fresh, so staleness accounting is silent too.  Only comparing
     what different vantages were served can catch it: each vantage's
     transparency log commits to its observations, and one gossip round
     turns the divergence into checkable fork evidence. *)
  let victim_route = Route.make (V4.p "63.174.16.0/20") 17054 in
  let victim_rp = Model.relying_party ~name:"victim-rp" m in
  let monitor_rp = Model.relying_party ~name:"monitor-rp" m in
  let victim_tr = Transport.create () and monitor_tr = Transport.create () in
  let fork =
    Rpki_attack.Split_view.plan ~authority:m.Model.continental
      ~target_filename:m.Model.roa_target20 ()
  in
  Printf.printf "\nday 4: %s\n" (Rpki_attack.Split_view.describe fork);
  Rpki_attack.Split_view.apply fork victim_tr;
  let victim_result =
    Relying_party.sync victim_rp ~now:4 ~universe:m.Model.universe ~transport:victim_tr ()
  in
  let monitor_result =
    Relying_party.sync monitor_rp ~now:4 ~universe:m.Model.universe ~transport:monitor_tr ()
  in
  Printf.printf "  victim sees  %s -> %s\n" (Route.to_string victim_route)
    (Origin_validation.state_to_string
       (Origin_validation.classify victim_result.Relying_party.index victim_route));
  Printf.printf "  monitor sees %s -> %s\n" (Route.to_string victim_route)
    (Origin_validation.state_to_string
       (Origin_validation.classify monitor_result.Relying_party.index victim_route));
  let snap4 = Rpki_monitor.Monitor.take ~now:4 m.Model.universe in
  print_alerts "\nwhat the content monitor reports"
    (Rpki_monitor.Monitor.diff ~before:snap3 ~after:snap4);
  print_alerts "what the victim's staleness accounting reports"
    (Rpki_monitor.Monitor.staleness_alerts victim_result);
  let vantage name rp tr addr =
    { Gossip.v_name = name; v_rp = rp;
      v_endpoint = Pub_point.create ~uri:("rsync://" ^ name ^ ".example/log") ~addr ~host_asn:1;
      v_transport = tr }
  in
  let mesh =
    Gossip.create
      [ vantage "victim-rp" victim_rp victim_tr 1; vantage "monitor-rp" monitor_rp monitor_tr 2 ]
  in
  let report = Gossip.round mesh ~now:4 in
  print_alerts "what one round of tree-head gossip reports"
    (Rpki_monitor.Monitor.gossip_alerts report.Gossip.r_alarms);
  List.iter
    (fun a ->
      Printf.printf "  fork evidence re-verified from scratch: %b\n"
        (Gossip.verify_fork ~key_of:(Gossip.key_of mesh) a))
    (Gossip.forks mesh);
  print_endline "\nthe split view defeated both the content diff and staleness accounting;";
  print_endline "Merkle-logged observations plus gossip made it detectable — with proof."
