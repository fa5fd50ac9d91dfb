(* Validation of one point's contents, recording every validity boundary
   consulted so the outcome can be replayed at a different [now].  No
   relying-party state, no transport, no URI: the outcome is URI-free (see
   {!Valcache.outcome}), issues carry only filename and reason here, and
   the caller re-attaches the URI.

   Every file at the point leaves one flat record.  A validation given the
   records of an earlier validation of the same point under the same
   issuing certificate takes an object's record over when nothing its
   contribution read has changed, and checks the object afresh otherwise;
   without earlier records every object is checked afresh, by the same
   code. *)

open Rpki_core

(* Canonical digest of a point's VRP contribution — one of the
   content-addressed fields of a transparency observation.  Taken once per
   validation, into the outcome's [o_vrp_hash]. *)
let vrp_set_hash vrps =
  Rpki_crypto.Sha256.digest
    (String.concat "\n" (List.map Vrp.to_string (List.sort_uniq Vrp.compare vrps)))

(* What one file adds to the outcome beside its digest and boundaries. *)
type contribution =
  | Nothing                  (* a valid EE certificate; the manifest and CRL *)
  | Vrps of Vrp.t list       (* a valid ROA *)
  | Child of Cert.t          (* a valid CA certificate *)
  | Rejected of Resources.t * Validation.failure
      (* a certificate or ROA that failed, with the resources it leaves
         dark: a CA certificate's own, else none *)
  | Issue of Validation.issue_kind * string
      (* an undecodable file, or an extra CRL or manifest *)

type file = {
  f_name : string;
  f_bytes : string;         (* the bytes validated, shared with the listing *)
  f_digest : string;        (* their SHA-256 *)
  f_bounds : Rtime.t list;  (* the instants its window's predicates flip *)
  f_serial : int;           (* the serial the CRL was asked about; -1 if none *)
  f_revoked : bool;         (* the CRL's answer *)
  f_result : contribution;
}

type results = {
  r_parent_fp : string;  (* the issuing certificate the records were made under *)
  r_at : Rtime.t;        (* the [now] they hold at *)
  r_files : file list;   (* in listing order *)
  r_vrps : Vrp.t list;   (* the outcome's VRPs ... *)
  r_vrp_hash : string;   (* ... and their digest *)
}

(* Validation reads time through three predicates only: [now < not_before],
   [not_after < now] and [next_update < now].  Each boundary is the first
   instant at which its predicate reads true or stops reading true, so two
   instants on the same {!Valcache.side} of every boundary read the same
   answers.  A CRL's or manifest's [this_update] is never read. *)
let window (c : Cert.t) = [ c.Cert.not_before; Rtime.add c.Cert.not_after 1 ]

let bounds = function
  | Obj.Cert c -> window c
  | Obj.Roa r -> window r.Roa.ee
  | Obj.Crl c -> [ Rtime.add c.Crl.next_update 1 ]
  | Obj.Manifest m -> window m.Manifest.ee @ [ Rtime.add m.Manifest.next_update 1 ]

(* A missing or invalid CRL revokes nothing. *)
let revoked crl serial = match crl with Some c -> Crl.revokes c serial | None -> false

(* The record of one file.  [previous] is the earlier validation's record
   under this name, if any, and [prev_at] its [now]; it stands while the
   bytes are the same, [now] sits on the same side of each of its
   boundaries and the CRL gives the same answer for its serial.  Otherwise
   the file is hashed and, unless it is the manifest or CRL [slot] the
   caller checks itself, decoded and validated. *)
let file ?verify ~now ~(ca_cert : Cert.t) ~crl ~previous ~prev_at ~slot (filename, bytes) =
  match previous with
  | Some f
    when String.equal f.f_bytes bytes
         && List.for_all (fun b -> Valcache.side now b = Valcache.side prev_at b) f.f_bounds
         && revoked crl f.f_serial = f.f_revoked ->
    if f.f_bytes == bytes then f else { f with f_bytes = bytes }
  | _ -> (
    let record ?(bounds = []) ?(serial = -1) result =
      { f_name = filename; f_bytes = bytes; f_digest = Rpki_crypto.Sha256.digest bytes;
        f_bounds = bounds; f_serial = serial; f_revoked = revoked crl serial;
        f_result = result }
    in
    if slot then record Nothing
    else
      match Obj.decode ~filename bytes with
      | Error e -> record (Issue (Validation.Ik_malformed, e))
      | Ok o -> (
        let bounds = bounds o in
        match o with
        | Obj.Cert c ->
          record ~bounds ~serial:c.Cert.serial
            (match Validation.validate_cert ?verify ~now ~parent:ca_cert ?crl c with
            | Ok () -> if c.Cert.is_ca then Child c else Nothing
            | Error f ->
              (* a child CA that fails here is a CA we cannot descend
                 into: whatever it would have spoken for is dark, so its
                 claimed resources feed the unsafe-VRP analysis *)
              Rejected ((if c.Cert.is_ca then c.Cert.resources else Resources.empty), f))
        | Obj.Roa r ->
          record ~bounds ~serial:r.Roa.ee.Cert.serial
            (match Validation.validate_roa ?verify ~now ~parent:ca_cert ?crl r with
            | Ok vs -> Vrps vs
            | Error f -> Rejected (Resources.empty, f))
        | Obj.Crl _ ->
          record ~bounds (Issue (Validation.Ik_unlisted_object, "unexpected extra CRL"))
        | Obj.Manifest _ ->
          record ~bounds (Issue (Validation.Ik_unlisted_object, "unexpected extra manifest"))))

let issue filename kind reason = (Some filename, kind, reason)

(* The manifest or CRL slot: the object decoded there with its boundaries,
   or the issue it raised. *)
let slot listing filename =
  match List.assoc_opt filename listing with
  | None -> (None, [], [])
  | Some bytes -> (
    match Obj.decode ~filename bytes with
    | Ok o -> (Some o, bounds o, [])
    | Error e -> (None, [], [ issue filename Validation.Ik_malformed e ]))

let validate ?verify ?prev ~now ~(ca_cert : Cert.t) ~parent_fp ~snap_fp listing =
  let mft_name =
    Option.value ca_cert.Cert.manifest_uri ~default:(ca_cert.Cert.subject ^ ".mft")
  in
  let crl_name = ca_cert.Cert.subject ^ ".crl" in
  let mft, mft_bounds, mft_malformed = slot listing mft_name in
  let manifest, mft_issues =
    match mft with
    | Some (Obj.Manifest m) -> (
      match Validation.validate_manifest ?verify ~now ~parent:ca_cert m with
      | Ok () -> (Some m, [])
      | Error f ->
        (* the shared Stale_crl failure means "window closed" here — on a
           manifest that is staleness, not an expired CRL *)
        let kind =
          match f with
          | Validation.Stale_crl _ -> Validation.Ik_stale_manifest
          | f -> Validation.failure_kind f
        in
        (None, [ issue mft_name kind (Validation.failure_to_string f) ]))
    | Some _ ->
      let why = "manifest slot holds a different object" in
      (None, [ issue mft_name Validation.Ik_missing_manifest why ])
    | None ->
      (None, [ issue mft_name Validation.Ik_missing_manifest "manifest missing or undecodable" ])
  in
  (* the CA's CRL for the objects it issued *)
  let crl, crl_bounds, crl_malformed = slot listing crl_name in
  let crl, crl_issues =
    match crl with
    | Some (Obj.Crl c) -> (
      match Validation.validate_crl ?verify ~now ~parent:ca_cert c with
      | Ok () -> (Some c, [])
      | Error f ->
        (None, [ issue crl_name (Validation.failure_kind f) (Validation.failure_to_string f) ]))
    | Some _ | None ->
      (None, [ issue crl_name Validation.Ik_missing_crl "CRL missing or undecodable" ])
  in
  (* every file's record, the earlier validation's taken over where it
     stands.  Both listings are sorted by name, so one cursor walks the
     earlier records; a name out of order only misses. *)
  let prev_at, earlier =
    match prev with
    | Some p when String.equal p.r_parent_fp parent_fp -> (p.r_at, ref p.r_files)
    | _ -> (now, ref [])
  in
  let rec previous name =
    match !earlier with
    | f :: rest when String.compare f.f_name name < 0 ->
      earlier := rest;
      previous name
    | f :: rest when String.equal f.f_name name ->
      earlier := rest;
      Some f
    | _ -> None
  in
  let files =
    List.map
      (fun ((filename, _) as entry) ->
        file ?verify ~now ~ca_cert ~crl ~previous:(previous filename) ~prev_at
          ~slot:(filename = mft_name || filename = crl_name) entry)
      listing
  in
  let record name = List.find_opt (fun f -> String.equal f.f_name name) files in
  (* manifest completeness / integrity check *)
  let listed_issues =
    match manifest with
    | None -> []
    | Some m ->
      List.filter_map
        (fun (e : Manifest.entry) ->
          let filename = e.Manifest.filename in
          match record filename with
          | None ->
            Some (issue filename Validation.Ik_missing_object "listed on manifest but missing")
          | Some f when not (Rpki_crypto.Hmac.equal_digest f.f_digest e.Manifest.hash) ->
            Some (issue filename Validation.Ik_hash_mismatch "hash mismatch with manifest")
          | Some _ -> None)
        m.Manifest.entries
      @ List.filter_map
          (fun f ->
            if f.f_name <> mft_name && Manifest.find m f.f_name = None then
              let why = "present but not listed on manifest" in
              Some (issue f.f_name Validation.Ik_unlisted_object why)
            else None)
          files
  in
  let boundaries = ref (crl_bounds @ mft_bounds @ window ca_cert) in
  let vrps = ref [] and children = ref [] and failed = ref Resources.empty in
  let file_issues = ref [] in
  List.iter
    (fun f ->
      boundaries := f.f_bounds @ !boundaries;
      match f.f_result with
      | Nothing -> ()
      | Vrps vs -> vrps := vs @ !vrps
      | Child c -> children := (c, f.f_digest) :: !children
      | Rejected (dark, failure) ->
        failed := Resources.union !failed dark;
        file_issues :=
          issue f.f_name (Validation.failure_kind failure) (Validation.failure_to_string failure)
          :: !file_issues
      | Issue (kind, reason) -> file_issues := issue f.f_name kind reason :: !file_issues)
    files;
  let vrps = !vrps in
  (* a point whose VRPs did not change, such as one that was only
     re-signed, keeps their digest *)
  let vrp_hash =
    match prev with
    | Some p when List.equal Vrp.equal p.r_vrps vrps -> p.r_vrp_hash
    | _ -> vrp_set_hash vrps
  in
  let outcome =
    { Valcache.o_parent_fp = parent_fp;
      o_snap_fp = snap_fp;
      o_at = now;
      o_boundaries = !boundaries;
      o_vrps = vrps;
      o_vrp_hash = vrp_hash;
      o_issues =
        mft_malformed @ mft_issues @ listed_issues @ crl_malformed @ crl_issues
        @ List.rev !file_issues;
      o_failed_resources = !failed;
      o_children = List.rev !children;
      (* what the point served, recorded even when the manifest fails
         validation: the log keeps evidence, not judgements *)
      o_mft_number =
        (match mft with Some (Obj.Manifest m) -> m.Manifest.manifest_number | _ -> 0);
      o_mft_hash = (match record mft_name with Some f -> f.f_digest | None -> "") }
  in
  ( outcome,
    { r_parent_fp = parent_fp; r_at = now; r_files = files; r_vrps = vrps;
      r_vrp_hash = vrp_hash } )
