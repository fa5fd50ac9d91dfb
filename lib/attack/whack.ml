(* The whacking engine: Section 3 of the paper.

   "We say that an RPKI manipulator *whacks* a target ROA" — by revocation,
   stealthy deletion, or the targeted RC-shrinking attacks of Section 3.1.
   This module plans and executes all of them against a live authority
   hierarchy, and predicts collateral damage before acting (the deterrent
   the paper says overt revocation carries).

   Planning for the targeted attack:
     1. let T be the target ROA's address space;
     2. find a sliver S of T that overlaps no *other* object hanging off the
        certification path from the manipulator down to the target's issuer
        (an "atom" of T under those objects), minimizing overlap otherwise;
     3. for every object that S unavoidably damages, schedule a reissue
        "as the manipulator's own" (make-before-break): sibling ROAs are
        re-signed by the manipulator; intermediate RCs on the path are
        re-certified directly under the manipulator with S carved out;
     4. finally overwrite the manipulator's child RC with S carved out.

   A grandchild target needs no RC reissues (Side Effect 3); deeper targets
   need one reissued RC per extra level (Side Effect 4), which is the
   paper's point about detectability. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

type reissue =
  | Reissue_roa of { asid : int; v4_entries : Roa.v4_entry list; original_issuer : string }
  | Reissue_rc of { subject : string; new_resources : Resources.t }

type plan = {
  manipulator : string;
  child : string;             (* the manipulator's direct child whose RC shrinks *)
  path : string list;         (* authorities from child down to the target's issuer *)
  target_issuer : string;
  target_filename : string;
  target : Roa.t;
  sliver : V4.Set.t;          (* address space carved out of the chain *)
  shrink_child_to : Resources.t;
  reissues : reissue list;
}

(* Only objects that currently validate can suffer collateral damage: a ROA
   whose space has already been carved out of its issuer's RC is dead, so it
   is neither an obstacle nor worth reissuing.  (Relevant when chaining
   whacks, as in a censorship campaign.) *)
let roa_live (authority : Authority.t) (roa : Roa.t) =
  Resources.subset (Roa.resources roa) (Authority.cert authority).Cert.resources

let rc_live (authority : Authority.t) (child : Authority.t) =
  Resources.subset (Authority.cert child).Cert.resources (Authority.cert authority).Cert.resources

(* All non-path live objects issued by [authority], as (description, v4 space). *)
let sibling_spaces (authority : Authority.t) ~except_child ~except_roa =
  let roas =
    List.filter_map
      (fun (filename, roa) ->
        if Some filename = except_roa || not (roa_live authority roa) then None
        else
          Some
            ( Printf.sprintf "ROA %s by %s" (Roa.to_string roa) (Authority.name authority),
              (Roa.resources roa).Resources.v4 ))
      (Authority.roas authority)
  in
  let rcs =
    List.filter_map
      (fun (c : Authority.t) ->
        if Some (Authority.name c) = except_child || not (rc_live authority c) then None
        else
          Some
            ( Printf.sprintf "RC %s by %s" (Authority.name c) (Authority.name authority),
              (Authority.cert c).Cert.resources.Resources.v4 ))
      (Authority.children authority)
  in
  roas @ rcs

(* Split [space] into atoms by the given (description, set) obstacles; each
   atom carries the obstacles it overlaps. *)
let atoms space obstacles =
  List.fold_left
    (fun atoms (desc, obs) ->
      List.concat_map
        (fun (s, damaged) ->
          let hit = V4.Set.inter s obs in
          let clear = V4.Set.diff s obs in
          (if V4.Set.is_empty hit then [] else [ (hit, desc :: damaged) ])
          @ if V4.Set.is_empty clear then [] else [ (clear, damaged) ])
        atoms)
    [ (space, []) ] obstacles

(* The chain of authorities from [manipulator] (exclusive) down to
   [target_issuer] (inclusive). *)
let path_to ~(manipulator : Authority.t) ~(target_issuer : string) =
  let rec go (a : Authority.t) =
    if (Authority.name a) = target_issuer then Some [ a ]
    else
      List.find_map (fun c -> Option.map (fun rest -> a :: rest) (go c)) (Authority.children a)
  in
  List.find_map go (Authority.children manipulator)

exception Cannot_whack of string

(* Build the targeted-whack plan.  Raises [Cannot_whack] when the target is
   not a strict descendant's ROA. *)
let plan_targeted ~(manipulator : Authority.t) ~(target_issuer : string) ~(target_filename : string) =
  if (Authority.name manipulator) = target_issuer then
    raise
      (Cannot_whack "target is the manipulator's own ROA; use revoke/stealth-delete instead");
  let path =
    match path_to ~manipulator ~target_issuer with
    | Some p -> p
    | None ->
      raise
        (Cannot_whack
           (Printf.sprintf "%s is not a descendant of %s" target_issuer
              (Authority.name manipulator)))
  in
  let issuer = List.nth path (List.length path - 1) in
  let target =
    match List.assoc_opt target_filename (Authority.roas issuer) with
    | Some r -> r
    | None -> raise (Cannot_whack (Printf.sprintf "no ROA %s at %s" target_filename target_issuer))
  in
  let target_space = (Roa.resources target).Resources.v4 in
  if V4.Set.is_empty target_space then raise (Cannot_whack "target ROA has no IPv4 space");
  (* obstacles: at each path level, the objects that are neither the next
     path RC nor the target itself *)
  let obstacles =
    List.concat
      (List.mapi
         (fun i (a : Authority.t) ->
           let next_child =
             if i + 1 < List.length path then Some (Authority.name (List.nth path (i + 1)))
             else None
           in
           let except_roa = if i = List.length path - 1 then Some target_filename else None in
           sibling_spaces a ~except_child:next_child ~except_roa)
         path)
  in
  let candidate_atoms = atoms target_space obstacles in
  (* fewest damaged obstacles; ties broken toward smaller slivers *)
  let best =
    List.fold_left
      (fun best (s, damaged) ->
        match best with
        | None -> Some (s, damaged)
        | Some (_, bd) when List.length damaged < List.length bd -> Some (s, damaged)
        | Some _ -> best)
      None candidate_atoms
  in
  let sliver_space =
    match best with Some (s, _) -> s | None -> raise (Cannot_whack "empty atom decomposition")
  in
  (* carve just one minimal prefix out of the chosen atom — the paper's
     example removes a single /24, the finest granularity that matters to
     globally-routable BGP *)
  let sliver =
    match V4.Set.to_prefixes sliver_space with
    | [] -> raise (Cannot_whack "empty sliver")
    | ps ->
      let longest = List.fold_left (fun m p -> max m (V4.Prefix.len p)) 0 ps in
      let p = List.find (fun p -> V4.Prefix.len p = longest) ps in
      let p =
        if V4.Prefix.len p >= 24 then p else V4.Prefix.make (V4.Prefix.addr p) 24
      in
      V4.Set.of_prefix p
  in
  let child = List.hd path in
  (* reissues: intermediate RCs (everything on the path below the child) get
     re-certified under the manipulator with the sliver carved out ... *)
  let rc_reissues =
    List.map
      (fun (a : Authority.t) ->
        Reissue_rc
          { subject = (Authority.name a);
            new_resources =
              { (Authority.cert a).Cert.resources with
                Resources.v4 = V4.Set.diff (Authority.cert a).Cert.resources.Resources.v4 sliver } })
      (List.tl path)
  in
  (* ... and damaged sibling ROAs get re-signed by the manipulator *)
  let damaged_roa_reissues =
    List.concat_map
      (fun (a : Authority.t) ->
        List.filter_map
          (fun (filename, roa) ->
            if (filename = target_filename && (Authority.name a) = target_issuer)
               || not (roa_live a roa)
            then None
            else if V4.Set.overlaps (Roa.resources roa).Resources.v4 sliver then
              Some
                (Reissue_roa
                   { asid = roa.Roa.asid; v4_entries = roa.Roa.v4_entries;
                     original_issuer = (Authority.name a) })
            else None)
          (Authority.roas a))
      path
  in
  let shrink_child_to =
    { (Authority.cert child).Cert.resources with
      Resources.v4 = V4.Set.diff (Authority.cert child).Cert.resources.Resources.v4 sliver }
  in
  { manipulator = (Authority.name manipulator);
    child = (Authority.name child);
    path = List.map (fun (a : Authority.t) -> (Authority.name a)) path;
    target_issuer;
    target_filename;
    target;
    sliver;
    shrink_child_to;
    reissues = rc_reissues @ damaged_roa_reissues }

(* Make-before-break is needed exactly when something must be reissued. *)
let needs_make_before_break plan = plan.reissues <> []

(* Execute: reissues first (make before...), then the RC overwrite
   (...break). *)
let execute ~(manipulator : Authority.t) (plan : plan) ~now =
  if (Authority.name manipulator) <> plan.manipulator then
    invalid_arg "Whack.execute: wrong manipulator";
  let reissued =
    List.map
      (fun r ->
        match r with
        | Reissue_roa { asid; v4_entries; _ } ->
          let filename, _ = Authority.issue_roa manipulator ~asid ~v4_entries ~now () in
          `Roa filename
        | Reissue_rc { subject; new_resources } -> (
          match Authority.find_descendant manipulator ~name:subject with
          | None -> raise (Cannot_whack ("lost descendant " ^ subject))
          | Some a ->
            let filename, _ =
              Authority.certify_key manipulator ~subject ~public_key:(Authority.key a).Rpki_crypto.Rsa.public
                ~resources:new_resources ~repo_uri:(Pub_point.uri (Authority.pub a))
                ~manifest_uri:(subject ^ ".mft") ~now
            in
            `Rc filename))
      plan.reissues
  in
  let child =
    match
      List.find_opt (fun (c : Authority.t) -> (Authority.name c) = plan.child)
        (Authority.children manipulator)
    with
    | Some c -> c
    | None -> raise (Cannot_whack ("lost child " ^ plan.child))
  in
  let _ = Authority.shrink_child_cert manipulator child ~resources:plan.shrink_child_to ~now in
  reissued

let describe (plan : plan) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "whack plan: %s -> %s (issued by %s)\n" plan.manipulator
       (Roa.to_string plan.target) plan.target_issuer);
  Buffer.add_string buf
    (Printf.sprintf "  path: %s\n" (String.concat " -> " (plan.manipulator :: plan.path)));
  Buffer.add_string buf (Printf.sprintf "  carve out: %s\n" (V4.Set.to_string plan.sliver));
  Buffer.add_string buf
    (Printf.sprintf "  shrink %s's RC to: %s\n" plan.child
       (Resources.to_string plan.shrink_child_to));
  if plan.reissues = [] then Buffer.add_string buf "  no reissues needed (clean whack)\n"
  else
    List.iter
      (fun r ->
        match r with
        | Reissue_roa { asid; v4_entries; original_issuer } ->
          Buffer.add_string buf
            (Printf.sprintf "  reissue ROA (%s, AS%d) originally by %s\n"
               (String.concat ", "
                  (List.map
                     (fun (e : Roa.v4_entry) -> V4.Prefix.to_string e.Roa.prefix)
                     v4_entries))
               asid original_issuer)
        | Reissue_rc { subject; new_resources } ->
          Buffer.add_string buf
            (Printf.sprintf "  reissue RC for %s with [%s]\n" subject
               (Resources.to_string new_resources)))
      plan.reissues;
  Buffer.contents buf
