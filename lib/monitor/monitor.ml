(* RPKI monitoring: detecting manipulations from repository snapshots.

   The paper poses as an open problem "the design of monitoring schemes that
   deter RPKI manipulations by detecting suspiciously reissued objects".
   This monitor is such a scheme: it diffs consecutive snapshots of every
   publication point, purely syntactically (no trust anchors needed), and
   classifies changes:

   - overt revocations (CRL-backed removals);
   - *stealthy* removals — an object vanishes with no CRL trace
     (Side Effect 2);
   - RC shrinking — a subject's resources lose address space
     (Side Effect 3's primitive);
   - make-before-break signatures — a ROA's routing meaning reappears under
     a different issuer in the same window (Figure 3's tell-tale). *)

open Rpki_core

type decoded_point = {
  uri : string;
  certs : (string * Cert.t) list; (* filename -> cert *)
  roas : (string * Roa.t) list;
  crl : Crl.t option;
}

type snapshot = { points : decoded_point list }

let decode_point (pp : Rpki_repo.Pub_point.t) =
  let certs = ref [] and roas = ref [] and crl = ref None in
  List.iter
    (fun (filename, bytes) ->
      match Obj.decode ~filename bytes with
      | Ok (Obj.Cert c) -> certs := (filename, c) :: !certs
      | Ok (Obj.Roa r) -> roas := (filename, r) :: !roas
      | Ok (Obj.Crl c) -> crl := Some c
      | Ok (Obj.Manifest _) | Error _ -> ())
    (Rpki_repo.Pub_point.snapshot pp);
  { uri = (Rpki_repo.Pub_point.uri pp); certs = !certs; roas = !roas; crl = !crl }

let take ~now:_ universe =
  { points = List.map decode_point (Rpki_repo.Universe.points universe) }

type severity = Info | Warning | Alarm

type alert = {
  severity : severity;
  uri : string;
  what : string;
}

let alert severity uri fmt = Printf.ksprintf (fun what -> { severity; uri; what }) fmt

let severity_to_string = function Info -> "info" | Warning -> "WARNING" | Alarm -> "ALARM"

let pp_alert fmt a =
  Format.fprintf fmt "[%s] %s: %s" (severity_to_string a.severity) a.uri a.what

(* Is [serial] revoked by the point's CRL after the change? *)
let revoked_by (point : decoded_point) serial =
  match point.crl with Some crl -> Crl.revokes crl serial | None -> false

let roa_key (r : Roa.t) = List.sort compare (Vrp.of_roa r)

let diff ~(before : snapshot) ~(after : snapshot) =
  let alerts = ref [] in
  let push a = alerts := a :: !alerts in
  (* index of ROAs appearing anywhere in [after], for reissue correlation *)
  let appeared_roas = ref [] in
  let pairs =
    List.filter_map
      (fun (b : decoded_point) ->
        Option.map (fun a -> (b, a))
          (List.find_opt (fun (a : decoded_point) -> a.uri = b.uri) after.points))
      before.points
  in
  (* pass 1: additions *)
  List.iter
    (fun ((b : decoded_point), (a : decoded_point)) ->
      List.iter
        (fun (filename, roa) ->
          if not (List.mem_assoc filename b.roas) then begin
            appeared_roas := (a.uri, roa) :: !appeared_roas;
            push (alert Info a.uri "new ROA %s (%s)" (Roa.to_string roa) filename)
          end)
        a.roas;
      List.iter
        (fun (filename, (cert : Cert.t)) ->
          if not (List.mem_assoc filename b.certs) then
            push
              (alert
                 (if cert.Cert.is_ca then Warning else Info)
                 a.uri "new certificate for %s (%s)" cert.Cert.subject filename))
        a.certs)
    pairs;
  (* pass 1b: a new ROA that duplicates a ROA still live at another point is
     the make-before-break preparation step *)
  List.iter
    (fun (uri, (roa : Roa.t)) ->
      let other_homes =
        List.concat_map
          (fun (p : decoded_point) ->
            if p.uri = uri then []
            else
              List.filter_map
                (fun (_, r) -> if roa_key r = roa_key roa then Some p.uri else None)
                p.roas)
          after.points
      in
      if other_homes <> [] then
        push
          (alert Warning uri
             "new ROA %s duplicates a ROA published at %s (possible make-before-break)"
             (Roa.to_string roa)
             (String.concat ", " other_homes)))
    !appeared_roas;
  (* pass 2: removals and rewrites *)
  List.iter
    (fun ((b : decoded_point), (a : decoded_point)) ->
      (* ROAs *)
      List.iter
        (fun (filename, (roa : Roa.t)) ->
          match List.assoc_opt filename a.roas with
          | Some roa' ->
            if roa_key roa <> roa_key roa' then
              push
                (alert Warning a.uri "ROA rewritten: %s -> %s" (Roa.to_string roa)
                   (Roa.to_string roa'))
          | None ->
            let reissued_at =
              List.filter_map
                (fun (uri, r) -> if roa_key r = roa_key roa && uri <> a.uri then Some uri else None)
                !appeared_roas
            in
            if reissued_at <> [] then
              push
                (alert Alarm a.uri
                   "make-before-break signature: ROA %s removed here and reissued at %s"
                   (Roa.to_string roa) (String.concat ", " reissued_at))
            else if revoked_by a roa.Roa.ee.Cert.serial then
              push (alert Warning a.uri "ROA %s revoked via CRL" (Roa.to_string roa))
            else
              push
                (alert Alarm a.uri "ROA %s deleted stealthily (no CRL trace)"
                   (Roa.to_string roa)))
        b.roas;
      (* certificates *)
      List.iter
        (fun (filename, (cert : Cert.t)) ->
          match List.assoc_opt filename a.certs with
          | Some cert' ->
            if not (Resources.equal cert.Cert.resources cert'.Cert.resources) then begin
              let removed =
                Resources.diff cert.Cert.resources cert'.Cert.resources
              in
              let added = Resources.diff cert'.Cert.resources cert.Cert.resources in
              if not (Resources.is_empty removed) then
                push
                  (alert Alarm a.uri "RC for %s shrunk: lost [%s]" cert.Cert.subject
                     (Resources.to_string removed))
              else
                push
                  (alert Info a.uri "RC for %s grew: gained [%s]" cert.Cert.subject
                     (Resources.to_string added))
            end
          | None ->
            if revoked_by a cert.Cert.serial then
              push
                (alert Warning a.uri "certificate for %s revoked via CRL" cert.Cert.subject)
            else
              push
                (alert Alarm a.uri "certificate for %s removed stealthily (no CRL trace)"
                   cert.Cert.subject))
        b.certs)
    pairs;
  (* pass 3: duplicate subjects across points (reissued RCs live at the
     manipulator's point while the original may persist elsewhere) *)
  let all_ca_subjects =
    List.concat_map
      (fun (p : decoded_point) ->
        List.filter_map
          (fun (_, (c : Cert.t)) -> if c.Cert.is_ca then Some (c.Cert.subject, p.uri) else None)
          p.certs)
      after.points
  in
  let subjects = List.sort_uniq String.compare (List.map fst all_ca_subjects) in
  List.iter
    (fun subject ->
      let homes =
        List.sort_uniq String.compare
          (List.filter_map (fun (s, u) -> if s = subject then Some u else None) all_ca_subjects)
      in
      match homes with
      | first :: _ :: _ ->
        push
          (alert Warning first "CA %s certified at multiple publication points: %s" subject
             (String.concat ", " homes))
      | _ -> ())
    subjects;
  List.rev !alerts

(* Freshness monitoring: a content monitor sees what is published; this
   watches what a relying party actually *used*.  A point served from stale
   cache is degraded service; served stale beyond [threshold] ticks — or not
   served at all — it is exactly the downgrade a stalling adversary
   (Stalloris) or a misbehaving authority's outage produces, and worth an
   alarm even though every published object still verifies. *)
let staleness_alerts ?(threshold = 2) (result : Rpki_repo.Relying_party.sync_result) =
  let open Rpki_repo.Relying_party in
  let point_alerts =
    List.filter_map
      (fun tr ->
        match tr.t_status with
        | Fetched -> None
        | Fetched_mirror | Fetched_rrdp ->
          Some
            { severity = Info; uri = tr.t_uri;
              what = Printf.sprintf "served via fallback channel %s" tr.t_channel }
        | Stale_cache ->
          let severity = if tr.t_data_age > threshold then Alarm else Warning in
          Some
            { severity; uri = tr.t_uri;
              what =
                Printf.sprintf "served from stale cache, data %d tick(s) old%s" tr.t_data_age
                  (if tr.t_data_age > threshold then
                     Printf.sprintf " (over the %d-tick staleness threshold)" threshold
                   else "") }
        | Unavailable ->
          Some { severity = Alarm; uri = tr.t_uri; what = "no copy obtained on any channel" })
      result.transfers
  in
  if result.budget_exhausted then
    { severity = Alarm; uri = "-";
      what =
        Printf.sprintf
          "sync budget exhausted after %d transport tick(s): fetches were abandoned"
          result.sync_elapsed }
    :: point_alerts
  else point_alerts

(* Gossip monitoring: a content monitor compares what a point published
   over time; gossip compares what different vantages were *served* at the
   same time.  Every gossip alarm is cryptographic — a fork carries two
   signed, inclusion-proved observations — so everything maps to [Alarm]. *)
let gossip_alerts gossip_alarms =
  List.map
    (fun ga ->
      let uri, severity =
        match ga with
        | Rpki_repo.Gossip.Fork { fork_uri; _ } -> (fork_uri, Alarm)
        | Rpki_repo.Gossip.Rollback { rb_uri; _ } -> (rb_uri, Alarm)
        | Rpki_repo.Gossip.Inconsistent_heads _ | Rpki_repo.Gossip.Bad_head_signature _
        | Rpki_repo.Gossip.Bad_inclusion _ -> ("-", Alarm)
        (* a log reset is a lost baseline, not proof of misbehavior — but it
           is exactly the window a rollback adversary needs, so it warrants
           a warning rather than silence *)
        | Rpki_repo.Gossip.Log_reset _ -> ("-", Warning)
      in
      { severity; uri; what = Rpki_repo.Gossip.describe_alarm ga })
    gossip_alarms

let alarms alerts = List.filter (fun a -> a.severity = Alarm) alerts
let warnings alerts = List.filter (fun a -> a.severity = Warning) alerts
