(* From-scratch validation of one point's contents, recording every
   validity boundary consulted so the outcome can be replayed at a
   different [now].  No relying-party state, no transport, no URI: the
   outcome is URI-free (see {!Valcache.outcome}), issues carry only
   filename and reason here, and the caller re-attaches the URI. *)

open Rpki_core

(* Canonical digest of a point's VRP contribution — one of the
   content-addressed fields of a transparency observation.  Taken once per
   validation, into the outcome's [o_vrp_hash]. *)
let vrp_set_hash vrps =
  Rpki_crypto.Sha256.digest
    (String.concat "\n" (List.map Vrp.to_string (List.sort_uniq Vrp.compare vrps)))

let validate ?verify ~now ~(ca_cert : Cert.t) ~parent_fp ~snap_fp snapshot =
  let local_issues = ref [] in
  let local_vrps = ref [] in
  let children = ref [] in
  let failed = ref Resources.empty in
  let boundaries = ref [ ca_cert.Cert.not_before; ca_cert.Cert.not_after ] in
  let window (c : Cert.t) = boundaries := c.Cert.not_before :: c.Cert.not_after :: !boundaries in
  let problem ?filename kind reason =
    local_issues := (filename, kind, reason) :: !local_issues
  in
  let decode_file filename =
    match List.assoc_opt filename snapshot with
    | None -> None
    | Some bytes -> (
      match Obj.decode ~filename bytes with
      | Ok o ->
        (match o with
        | Obj.Cert c -> window c
        | Obj.Roa r -> window r.Roa.ee
        | Obj.Crl c -> boundaries := c.Crl.this_update :: c.Crl.next_update :: !boundaries
        | Obj.Manifest m ->
          window m.Manifest.ee;
          boundaries := m.Manifest.this_update :: m.Manifest.next_update :: !boundaries);
        Some o
      | Error e ->
        problem ~filename Validation.Ik_malformed e;
        None)
  in
  (* the CA's own manifest, if present and well-formed *)
  let mft_name =
    Option.value ca_cert.Cert.manifest_uri ~default:(ca_cert.Cert.subject ^ ".mft")
  in
  (* transparency fields: what the point *served*, recorded even when the
     manifest fails validation — the log keeps evidence, not judgements *)
  let mft_hash =
    match List.assoc_opt mft_name snapshot with
    | Some bytes -> Rpki_crypto.Sha256.digest bytes
    | None -> ""
  in
  let mft_number = ref 0 in
  let manifest =
    match decode_file mft_name with
    | Some (Obj.Manifest m) -> (
      mft_number := m.Manifest.manifest_number;
      match Validation.validate_manifest ?verify ~now ~parent:ca_cert m with
      | Ok () -> Some m
      | Error f ->
        (* the shared Stale_crl failure means "window closed" here — on a
           manifest that is staleness, not an expired CRL *)
        let kind =
          match f with
          | Validation.Stale_crl _ -> Validation.Ik_stale_manifest
          | f -> Validation.failure_kind f
        in
        problem ~filename:mft_name kind (Validation.failure_to_string f);
        None)
    | Some _ ->
      problem ~filename:mft_name Validation.Ik_missing_manifest
        "manifest slot holds a different object";
      None
    | None ->
      problem ~filename:mft_name Validation.Ik_missing_manifest
        "manifest missing or undecodable";
      None
  in
  (* manifest completeness / integrity check *)
  (match manifest with
  | None -> ()
  | Some m ->
    List.iter
      (fun (e : Manifest.entry) ->
        match List.assoc_opt e.Manifest.filename snapshot with
        | None ->
          problem ~filename:e.Manifest.filename Validation.Ik_missing_object
            "listed on manifest but missing"
        | Some bytes ->
          if not (Rpki_crypto.Hmac.equal_digest (Rpki_crypto.Sha256.digest bytes) e.Manifest.hash)
          then
            problem ~filename:e.Manifest.filename Validation.Ik_hash_mismatch
              "hash mismatch with manifest")
      m.Manifest.entries;
    List.iter
      (fun (filename, _) ->
        if filename <> mft_name && Manifest.find m filename = None then
          problem ~filename Validation.Ik_unlisted_object "present but not listed on manifest")
      snapshot);
  (* the CA's CRL for the objects it issued *)
  let crl_name = ca_cert.Cert.subject ^ ".crl" in
  let crl =
    match decode_file crl_name with
    | Some (Obj.Crl c) -> (
      match Validation.validate_crl ?verify ~now ~parent:ca_cert c with
      | Ok () -> Some c
      | Error f ->
        problem ~filename:crl_name (Validation.failure_kind f)
          (Validation.failure_to_string f);
        None)
    | Some _ | None ->
      problem ~filename:crl_name Validation.Ik_missing_crl "CRL missing or undecodable";
      None
  in
  (* process every other object at the point *)
  List.iter
    (fun (filename, _) ->
      if filename = mft_name || filename = crl_name then ()
      else begin
        match decode_file filename with
        | None -> ()
        | Some (Obj.Cert c) -> (
          match Validation.validate_cert ?verify ~now ~parent:ca_cert ?crl c with
          | Ok () ->
            if c.Cert.is_ca then
              (* the bytes [decode_file] read: the child point's parent_fp *)
              let bytes = List.assoc filename snapshot in
              children := (c, Rpki_crypto.Sha256.digest bytes) :: !children
          | Error f ->
            (* a child CA that fails here is a CA we cannot descend into:
               whatever it would have spoken for is dark, so its claimed
               resources feed the unsafe-VRP analysis *)
            if c.Cert.is_ca then failed := Resources.union !failed c.Cert.resources;
            problem ~filename (Validation.failure_kind f) (Validation.failure_to_string f))
        | Some (Obj.Roa r) -> (
          match Validation.validate_roa ?verify ~now ~parent:ca_cert ?crl r with
          | Ok vs -> local_vrps := vs @ !local_vrps
          | Error f ->
            problem ~filename (Validation.failure_kind f) (Validation.failure_to_string f))
        | Some (Obj.Crl _) -> problem ~filename Validation.Ik_unlisted_object "unexpected extra CRL"
        | Some (Obj.Manifest _) ->
          problem ~filename Validation.Ik_unlisted_object "unexpected extra manifest"
      end)
    snapshot;
  { Valcache.o_parent_fp = parent_fp;
    o_snap_fp = snap_fp;
    o_at = now;
    o_boundaries = !boundaries;
    o_vrps = !local_vrps;
    o_vrp_hash = vrp_set_hash !local_vrps;
    o_issues = List.rev !local_issues;
    o_failed_resources = !failed;
    o_children = List.rev !children;
    o_mft_number = !mft_number;
    o_mft_hash = mft_hash }
