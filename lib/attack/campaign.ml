(* Censorship campaigns: many targeted whacks with one objective.

   The paper's motivation is state-sponsored coercion — "centralized
   authorities are an easy target for lawful (or extralegal) coercion by
   state-sponsored actors seeking to impose censorship".  A coerced
   authority rarely wants one ROA gone; it wants an AS, a network, or a
   whole country off the map.  This module plans such campaigns as a set of
   single-ROA whacks (plus direct revocations for the manipulator's own
   ROAs), and reports what the campaign costs in reissued objects — the
   paper's detectability currency. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

type objective =
  | Target_asns of int list       (* silence these origin ASes *)
  | Target_space of V4.Set.t      (* silence everything in this space *)

let roa_matches objective (roa : Roa.t) =
  match objective with
  | Target_asns asns -> List.mem roa.Roa.asid asns
  | Target_space space -> V4.Set.overlaps (Roa.resources roa).Resources.v4 space

type step =
  | Whack_step of Whack.plan
  | Revoke_own of { filename : string; roa : Roa.t }

type plan = {
  steps : step list;
  unplannable : (string * string * string) list; (* issuer, filename, reason *)
}

(* Enumerate every matching ROA below (or at) the manipulator and plan its
   removal. *)
let plan ~(manipulator : Authority.t) ~objective =
  let own =
    List.filter_map
      (fun (filename, roa) ->
        if roa_matches objective roa then Some (Revoke_own { filename; roa }) else None)
      (Authority.roas manipulator)
  in
  let steps = ref own in
  let unplannable = ref [] in
  Authority.iter_descendants manipulator ~f:(fun issuer ->
      List.iter
        (fun (filename, roa) ->
          if roa_matches objective roa then begin
            match
              Whack.plan_targeted ~manipulator ~target_issuer:(Authority.name issuer)
                ~target_filename:filename
            with
            | p -> steps := Whack_step p :: !steps
            | exception Whack.Cannot_whack reason ->
              unplannable := ((Authority.name issuer), filename, reason) :: !unplannable
          end)
        (Authority.roas issuer));
  { steps = List.rev !steps; unplannable = List.rev !unplannable }

(* Reissued objects the campaign requires — the paper's detectability cost. *)
let reissue_count plan =
  List.fold_left
    (fun acc step ->
      match step with Whack_step p -> acc + List.length p.Whack.reissues | Revoke_own _ -> acc)
    0 plan.steps

(* Execute every step.  Whack plans are re-derived against current state
   because earlier steps change the hierarchy (shrunken RCs shift the atoms
   available to later ones). *)
let execute ~(manipulator : Authority.t) (c : plan) ~now =
  let executed = ref 0 and failed = ref [] in
  List.iter
    (fun step ->
      match step with
      | Revoke_own { filename; _ } ->
        Authority.revoke_roa manipulator ~filename ~now;
        incr executed
      | Whack_step p -> (
        match
          Whack.plan_targeted ~manipulator ~target_issuer:p.Whack.target_issuer
            ~target_filename:p.Whack.target_filename
        with
        | fresh ->
          ignore (Whack.execute ~manipulator fresh ~now);
          incr executed
        | exception Whack.Cannot_whack reason ->
          failed := (p.Whack.target_issuer, p.Whack.target_filename, reason) :: !failed))
    c.steps;
  (!executed, List.rev !failed)

(* --- bridging the jurisdiction dataset to a live hierarchy --- *)

(* Build a real certificate hierarchy from an allocation dataset: one trust
   anchor per RIR present, one holder CA per RC record, one ROA per
   suballocation.  This is what lets Table 4's "can whack" become an
   executable "does whack". *)
let hierarchy_of_dataset (records : Rpki_juris.Dataset.rc_record list) =
  let now = Rtime.epoch in
  let universe = Universe.create () in
  let rirs =
    List.sort_uniq compare (List.map (fun (r : Rpki_juris.Dataset.rc_record) -> r.Rpki_juris.Dataset.parent_rir) records)
  in
  let rir_tas =
    List.map
      (fun rir ->
        let name = Rpki_juris.Country.rir_to_string rir in
        let resources =
          (* the union of the member RCs' space, rounded up to /8s *)
          let v4 =
            V4.Set.of_prefixes
              (List.concat_map
                 (fun (r : Rpki_juris.Dataset.rc_record) ->
                   if r.Rpki_juris.Dataset.parent_rir = rir then
                     [ V4.Prefix.make (V4.Prefix.addr r.Rpki_juris.Dataset.rc_prefix) 8 ]
                   else [])
                 records)
          in
          Resources.make ~v4 ()
        in
        let ta =
          Authority.create_trust_anchor ~name ~resources
            ~uri:(Printf.sprintf "rsync://rpki.%s.net/repo" (String.lowercase_ascii name))
            ~addr:(199 lsl 24) ~host_asn:3856 ~now ~universe ()
        in
        (rir, ta))
      rirs
  in
  let holders =
    List.mapi
      (fun i (r : Rpki_juris.Dataset.rc_record) ->
        let ta = List.assoc r.Rpki_juris.Dataset.parent_rir rir_tas in
        let name = Printf.sprintf "%s-%d" r.Rpki_juris.Dataset.holder i in
        let holder =
          Authority.create_child ta ~name
            ~resources:(Resources.make ~v4:(V4.Set.of_prefix r.Rpki_juris.Dataset.rc_prefix) ())
            ~uri:(Printf.sprintf "rsync://repo-%d.example/repo" i)
            ~addr:(V4.Prefix.addr r.Rpki_juris.Dataset.rc_prefix + 1)
            ~host_asn:(20000 + i) ~now ~universe ()
        in
        List.iter
          (fun (s : Rpki_juris.Dataset.suballocation) ->
            ignore
              (Authority.issue_simple_roa holder ~asid:s.Rpki_juris.Dataset.customer_as
                 ~prefix:s.Rpki_juris.Dataset.sub_prefix ~now ()))
          r.Rpki_juris.Dataset.suballocations;
        (r, holder))
      records
  in
  (universe, rir_tas, holders)

(* The AS numbers serving a given country in the dataset. *)
let asns_of_country (records : Rpki_juris.Dataset.rc_record list) country =
  List.sort_uniq Int.compare
    (List.concat_map
       (fun (r : Rpki_juris.Dataset.rc_record) ->
         List.filter_map
           (fun (s : Rpki_juris.Dataset.suballocation) ->
             if s.Rpki_juris.Dataset.country = country then Some s.Rpki_juris.Dataset.customer_as
             else None)
           r.Rpki_juris.Dataset.suballocations)
       records)
