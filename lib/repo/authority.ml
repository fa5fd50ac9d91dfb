(* A stateful RPKI authority (certification authority).

   Owns a keypair, a resource certificate signed by its parent (or by itself
   for a trust anchor), and a publication point holding everything it has
   issued: child RCs, ROAs, its CRL and its manifest (RFC 6481 layout).

   All legitimate operations *and* all of the paper's manipulations are
   methods here — a misbehaving authority is just an authority whose owner
   calls the wrong methods, which is exactly the paper's point. *)

open Rpki_core
open Rpki_crypto

type t = {
  name : string;
  mutable key : Rsa.keypair; (* mutable to support RFC 6489 key rollover *)
  ee_key : Rsa.keypair; (* reused for EE certificates; reuse is permitted and
                           cuts keygen cost when building large hierarchies *)
  key_bits : int;
  rng : Rpki_util.Rng.t; (* deterministic per-authority entropy for EE keys *)
  mutable cert : Cert.t; (* current RC (parent-signed, or self-signed TA) *)
  parent : t option;
  pub : Pub_point.t;
  mutable next_serial : int;
  mutable revoked : int list;
  mutable manifest_number : int;
  mutable children : t list;
  mutable roas : (string * Roa.t) list; (* filename -> current ROA *)
  validity : int; (* ticks of validity given to issued objects *)
  refresh_interval : int; (* ticks of CRL/manifest currency *)
}

(* Read-only accessors: the record itself stays private so every state
   change flows through the operations below (and thus republishes). *)
let name t = t.name
let key t = t.key
let ee_key t = t.ee_key
let cert t = t.cert
let pub t = t.pub
let children t = t.children
let roas t = t.roas
let revoked t = t.revoked

let crl_filename t = t.name ^ ".crl"
let manifest_filename t = t.name ^ ".mft"
let cert_filename name = name ^ ".cer"

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

(* A republish is two steps.  [advance] moves the counters one republish
   uses up: the manifest number, and a serial for the manifest's EE
   certificate, which it returns.  [sign] then signs the CRL, and the
   manifest over everything else at the point under that number and serial.

   Every operation below ends in a republish: an authority always keeps its
   *own* publication point consistent — inconsistency only arises from
   third-party faults, which is the distinction the manifest exists to
   surface.  A [batch] of operations advances after each and signs once,
   after the last.  Its bytes are those of one republish per operation: the
   EE key is given, so [Manifest.issue] draws nothing from the DRBG;
   PKCS#1 v1.5 signatures are deterministic; and only the last CRL and
   manifest stay published. *)
let advance t =
  t.manifest_number <- t.manifest_number + 1;
  fresh_serial t

let sign_crl t ~this_update ~next_update =
  let crl =
    Crl.issue ~ca_key:t.key.Rsa.private_ ~issuer:t.name ~this_update ~next_update
      ~revoked_serials:t.revoked
  in
  Pub_point.put t.pub ~filename:(crl_filename t) (Crl.encode crl)

let sign_manifest t ~now ~serial =
  let files =
    List.filter (fun (name, _) -> name <> manifest_filename t) (Pub_point.files t.pub)
  in
  let mft =
    Manifest.issue ~ca_key:t.key.Rsa.private_ ~ca_subject:t.name ~serial ~rng:t.rng
      ~ee_key:t.ee_key ~manifest_number:t.manifest_number ~this_update:now
      ~next_update:(Rtime.add now t.refresh_interval) ~files ()
  in
  Pub_point.put t.pub ~filename:(manifest_filename t) (Manifest.encode mft)

let sign t ~now ~serial =
  sign_crl t ~this_update:now ~next_update:(Rtime.add now t.refresh_interval);
  sign_manifest t ~now ~serial

let republish t ~now = sign t ~now ~serial:(advance t)

(* Run each operation as if a republish followed it, signing only after the
   last; an empty batch publishes nothing. *)
let batch t ~now ops =
  let serial = ref None in
  let results =
    List.map
      (fun op ->
        let r = op () in
        serial := Some (advance t);
        r)
      ops
  in
  Option.iter (fun serial -> sign t ~now ~serial) !serial;
  results

let default_validity = Rtime.year
let default_refresh = Rtime.day * 14

(* An authority's key material depends on nothing but its name and the
   modulus width, so it can be made ahead of time, on any Domain. *)
type keys = {
  k_name : string;
  k_bits : int;
  k_rng : Rpki_util.Rng.t; (* the DRBG-derived stream, positioned after
                              both key pairs *)
  k_key : Rsa.keypair;
  k_ee_key : Rsa.keypair;
}

let make_keys ~name ~key_bits =
  let rng = Drbg.to_rng (Drbg.create ~seed:("authority:" ^ name)) in
  let key = Rsa.generate ~bits:key_bits rng in
  let ee_key = Rsa.generate ~bits:key_bits rng in
  { k_name = name; k_bits = key_bits; k_rng = rng; k_key = key; k_ee_key = ee_key }

(* The keys [create_*] would make.  Given keys must have been made for the
   same name and width, so passing them never changes a result; the stream
   is copied, so one [keys] value may serve more than once. *)
let keys_for ?keys ~name ~key_bits () =
  match keys with
  | None -> make_keys ~name ~key_bits
  | Some k when String.equal k.k_name name && k.k_bits = key_bits ->
    { k with k_rng = Rpki_util.Rng.copy k.k_rng }
  | Some k ->
    invalid_arg
      (Printf.sprintf "Authority: keys made for %s (%d bits), not %s (%d bits)" k.k_name
         k.k_bits name key_bits)

let create_trust_anchor ~name ~resources ~uri ~addr ~host_asn ~now ~universe
    ?(key_bits = Rsa.default_bits) ?keys ?(validity = default_validity)
    ?(refresh_interval = default_refresh) () =
  let { k_rng = rng; k_key = key; k_ee_key = ee_key; _ } = keys_for ?keys ~name ~key_bits () in
  let cert =
    Cert.self_signed ~key ~subject:name ~resources ~not_before:now
      ~not_after:(Rtime.add now validity) ~repo_uri:uri ~manifest_uri:(name ^ ".mft") ()
  in
  let pub = Pub_point.create ~uri ~addr ~host_asn in
  Universe.add universe pub;
  let t =
    { name; key; ee_key; key_bits; rng; cert; parent = None; pub; next_serial = 2; revoked = [];
      manifest_number = 0; children = []; roas = []; validity; refresh_interval }
  in
  (* the TA certificate itself is fetched from the TA's publication point *)
  Pub_point.put pub ~filename:(cert_filename name) (Cert.encode cert);
  republish t ~now;
  t

(* The TAL a relying party needs to start from this trust anchor. *)
let tal t =
  if t.parent <> None then invalid_arg "Authority.tal: not a trust anchor";
  (t.key.Rsa.public, Pub_point.uri t.pub, cert_filename t.name)

(* Issue a child CA with its own key, certificate and publication point. *)
let create_child parent ~name ~resources ~uri ~addr ~host_asn ~now ~universe
    ?key_bits ?keys ?validity ?refresh_interval () =
  let key_bits = Option.value key_bits ~default:parent.key_bits in
  let validity = Option.value validity ~default:parent.validity in
  let refresh_interval = Option.value refresh_interval ~default:parent.refresh_interval in
  let { k_rng = rng; k_key = key; k_ee_key = ee_key; _ } = keys_for ?keys ~name ~key_bits () in
  let serial = fresh_serial parent in
  let cert =
    Cert.issue ~issuer_key:parent.key.Rsa.private_ ~serial ~issuer:parent.name ~subject:name
      ~public_key:key.Rsa.public ~resources ~not_before:now ~not_after:(Rtime.add now validity)
      ~is_ca:true ~crl_uri:(crl_filename parent) ~aia_uri:(Pub_point.uri parent.pub) ~repo_uri:uri
      ~manifest_uri:(name ^ ".mft") ()
  in
  let pub = Pub_point.create ~uri ~addr ~host_asn in
  Universe.add universe pub;
  let child =
    { name; key; ee_key; key_bits; rng; cert; parent = Some parent; pub; next_serial = 2; revoked = [];
      manifest_number = 0; children = []; roas = []; validity; refresh_interval }
  in
  parent.children <- parent.children @ [ child ];
  Pub_point.put parent.pub ~filename:(cert_filename name) (Cert.encode cert);
  republish parent ~now;
  republish child ~now;
  child

(* Sign a ROA under a fresh serial, its EE certificate valid over
   [not_before, not_after]. *)
let sign_roa t ~asid ~v4_entries ~v6_entries ~not_before ~not_after =
  Roa.issue ~ca_key:t.key.Rsa.private_ ~ca_subject:t.name ~serial:(fresh_serial t) ~rng:t.rng
    ~ee_key:t.ee_key ~asid ~v4_entries ~v6_entries ~not_before ~not_after
    ~crl_uri:(crl_filename t) ~aia_uri:(Pub_point.uri t.pub) ()

(* Re-sign a published ROA in place with a new window. *)
let resign_roa t ~filename ~not_before ~not_after ~op =
  match List.assoc_opt filename t.roas with
  | None -> invalid_arg (Printf.sprintf "Authority.%s: unknown ROA" op)
  | Some roa ->
    let roa' =
      sign_roa t ~asid:roa.Roa.asid ~v4_entries:roa.Roa.v4_entries
        ~v6_entries:roa.Roa.v6_entries ~not_before ~not_after
    in
    t.roas <- List.map (fun (f, r) -> if f = filename then (f, roa') else (f, r)) t.roas;
    Pub_point.put t.pub ~filename (Roa.encode roa');
    roa'

(* Issue ROAs as one batch, in order, each named after its EE certificate's
   serial.  The point is signed once, after the last, and its bytes are
   those of issuing the ROAs one at a time. *)
let issue_roas t ~now specs =
  batch t ~now
    (List.map
       (fun (asid, v4_entries) () ->
         let roa =
           sign_roa t ~asid ~v4_entries ~v6_entries:[] ~not_before:now
             ~not_after:(Rtime.add now t.validity)
         in
         let filename = Printf.sprintf "roa-%d.roa" roa.Roa.ee.Cert.serial in
         t.roas <- t.roas @ [ (filename, roa) ];
         Pub_point.put t.pub ~filename (Roa.encode roa);
         (filename, roa))
       specs)

let issue_roa t ~asid ~v4_entries ~now () = List.hd (issue_roas t ~now [ (asid, v4_entries) ])

(* Convenience used by fixtures: single-prefix ROA. *)
let issue_simple_roa t ~asid ~prefix ?max_len ~now () =
  issue_roa t ~asid ~v4_entries:[ Roa.entry ?max_len prefix ] ~now ()

(* --- legitimate maintenance --- *)

(* Refresh the CRL and manifest windows (a healthy authority does this well
   before nextUpdate; a faulty one forgets — Side Effect 6). *)
let refresh t ~now = republish t ~now

(* Re-sign an expiring ROA in place. *)
let renew t ~filename ~now =
  resign_roa t ~filename ~not_before:now ~not_after:(Rtime.add now t.validity) ~op:"renew_roa"

let renew_roa t ~filename ~now = List.hd (batch t ~now [ (fun () -> renew t ~filename ~now) ])

(* --- the fault corpus's authority-side misbehaviors ---

   The real RPKI's background noise (SNIPPETS.md): operators who let their
   CRL lapse, publish forward-dated certificates, skip or rewind manifest
   numbers, overclaim resources, or stop serving a manifest entirely.  Each
   is an authority keeping its point *self-consistent* while violating one
   currency or containment rule — exactly the kind of misbehavior third-party
   faults (delete/corrupt/wipe) cannot express. *)

(* Backdated windows clamp at the epoch: times are encoded as naturals, and
   an injection at an early tick only needs the window to be closed, not to
   reach a particular depth into the past. *)
let back now delta = max Rtime.epoch (Rtime.add now (-delta))

(* Publish a CRL whose nextUpdate is already past (47x "CRL has expired").
   The manifest is regenerated over the stale CRL, so hashes still match and
   the lapsed window is the only fault. *)
let expire_crl t ~now =
  sign_crl t ~this_update:(back now t.refresh_interval) ~next_update:(back now 1);
  sign_manifest t ~now ~serial:(advance t)

(* Re-sign a ROA with an already-closed validity window (13x "certificate
   has expired" — the EE certificate carries the window). *)
let expire_roa t ~filename ~now =
  ignore
    (resign_roa t ~filename ~not_before:(back now t.validity) ~not_after:(back now 1)
       ~op:"expire_roa");
  republish t ~now

(* Re-sign a ROA forward-dated by [delay] ticks (7x "not yet valid"). *)
let postdate_roa t ~filename ~delay ~now =
  ignore
    (resign_roa t ~filename ~not_before:(Rtime.add now delay)
       ~not_after:(Rtime.add now (delay + t.validity)) ~op:"postdate_roa");
  republish t ~now

(* Jump the manifest number forward by [gap] (18x "seqnum gap detected"):
   the states in between were never published, so a relying party replaying
   the point sees the number leap. *)
let skip_manifest_numbers t ~gap ~now =
  t.manifest_number <- t.manifest_number + max 0 gap;
  republish t ~now

(* Publish with a manifest number lower than the last one served (2x
   "manifest numbers lower than expected").  [republish] adds one back, so
   the net published number drops by [by]. *)
let regress_manifest_number t ~by ~now =
  t.manifest_number <- max 0 (t.manifest_number - max 0 by - 1);
  republish t ~now

(* Issue a ROA for space outside this authority's own certificate (7x
   "RFC 3779 resource not subset of parent's resources").  Returns the
   filename; [revoke_roa] is the repair. *)
let overclaim_roa t ~asid ~prefix ~now =
  fst (issue_roa t ~asid ~v4_entries:[ Roa.entry prefix ] ~now ())

(* Stop serving a manifest (20x "no valid manifest available") without
   touching anything else; [refresh] is the repair. *)
let withhold_manifest t = Pub_point.delete t.pub ~filename:(manifest_filename t)

(* --- the paper's manipulations (Section 3) --- *)

(* Overt revocation of a child RC via the CRL (Side Effect 1).  Also removes
   the published file, as a revoking CA would. *)
let revoke_child t (child : t) ~now =
  t.revoked <- child.cert.Cert.serial :: t.revoked;
  Pub_point.delete t.pub ~filename:(cert_filename child.name);
  t.children <- List.filter (fun c -> c.name <> child.name) t.children;
  republish t ~now

(* Overt revocation of a ROA: revoke its EE certificate and delist it. *)
let revoke_roa t ~filename ~now =
  match List.assoc_opt filename t.roas with
  | None -> invalid_arg "Authority.revoke_roa: unknown ROA"
  | Some roa ->
    t.revoked <- roa.Roa.ee.Cert.serial :: t.revoked;
    t.roas <- List.remove_assoc filename t.roas;
    Pub_point.delete t.pub ~filename;
    republish t ~now

(* Stealthy revocation (Side Effect 2): simply delete the object from the
   repository, leaving the CRL untouched.  The manifest is regenerated —
   the authority controls it, so nothing looks locally inconsistent. *)
let stealth_delete_roa t ~filename ~now =
  if not (Pub_point.mem t.pub ~filename) then
    invalid_arg "Authority.stealth_delete_roa: unknown file";
  t.roas <- List.remove_assoc filename t.roas;
  Pub_point.delete t.pub ~filename;
  republish t ~now

let stealth_delete_child_cert t (child : t) ~now =
  Pub_point.delete t.pub ~filename:(cert_filename child.name);
  t.children <- List.filter (fun c -> c.name <> child.name) t.children;
  republish t ~now

(* Overwrite a child's RC with one for a smaller resource set (the key
   primitive behind targeted whacking, Side Effect 3).  The child keeps its
   key; only the resource bundle shrinks.  Stealthy: no CRL entry. *)
let shrink_child_cert t (child : t) ~resources ~now =
  if not (List.exists (fun c -> c.name = child.name) t.children) then
    invalid_arg "Authority.shrink_child_cert: not my child";
  let serial = fresh_serial t in
  let cert' =
    Cert.issue ~issuer_key:t.key.Rsa.private_ ~serial ~issuer:t.name ~subject:child.name
      ~public_key:child.key.Rsa.public ~resources ~not_before:now
      ~not_after:(Rtime.add now t.validity) ~is_ca:true ~crl_uri:(crl_filename t)
      ~aia_uri:(Pub_point.uri t.pub) ~repo_uri:(Pub_point.uri child.pub)
      ~manifest_uri:(child.name ^ ".mft") ()
  in
  child.cert <- cert';
  Pub_point.put t.pub ~filename:(cert_filename child.name) (Cert.encode cert');
  republish t ~now;
  cert'

(* Certify another authority's existing key directly — the "reissue the
   damaged descendant objects as its own" step of make-before-break
   (Figure 3).  The subject keeps its publication point; relying parties
   will discover it through this certificate instead of the (about to be
   damaged) original chain. *)
let certify_key t ~subject ~public_key ~resources ~repo_uri ~manifest_uri ~now =
  let serial = fresh_serial t in
  let cert =
    Cert.issue ~issuer_key:t.key.Rsa.private_ ~serial ~issuer:t.name ~subject
      ~public_key ~resources ~not_before:now ~not_after:(Rtime.add now t.validity) ~is_ca:true
      ~crl_uri:(crl_filename t) ~aia_uri:(Pub_point.uri t.pub) ~repo_uri ~manifest_uri ()
  in
  let filename = Printf.sprintf "%s-reissued-by-%s.cer" subject t.name in
  Pub_point.put t.pub ~filename (Cert.encode cert);
  republish t ~now;
  (filename, cert)

(* RFC 6489 key rollover: generate a new key pair, obtain a new RC for it
   from the parent (revoking the old one), and re-sign everything this
   authority has issued.  Object filenames persist — the "objects can be
   overwritten" design decision exists precisely to make this easy, which is
   also what makes Side Effect 2 possible. *)
let rec roll_key t ~now =
  let old_serial = t.cert.Cert.serial in
  let new_key = Rsa.generate ~bits:t.key_bits t.rng in
  t.key <- new_key;
  (match t.parent with
  | None ->
    t.cert <-
      Cert.self_signed ~key:new_key ~subject:t.name ~resources:t.cert.Cert.resources
        ~not_before:now ~not_after:(Rtime.add now t.validity) ~repo_uri:(Pub_point.uri t.pub)
        ~manifest_uri:(manifest_filename t) ();
    Pub_point.put t.pub ~filename:(cert_filename t.name) (Cert.encode t.cert)
  | Some parent ->
    parent.revoked <- old_serial :: parent.revoked;
    let serial = fresh_serial parent in
    t.cert <-
      Cert.issue ~issuer_key:parent.key.Rsa.private_ ~serial ~issuer:parent.name ~subject:t.name
        ~public_key:new_key.Rsa.public ~resources:t.cert.Cert.resources ~not_before:now
        ~not_after:(Rtime.add now t.validity) ~is_ca:true ~crl_uri:(crl_filename parent)
        ~aia_uri:(Pub_point.uri parent.pub) ~repo_uri:(Pub_point.uri t.pub)
        ~manifest_uri:(manifest_filename t) ();
    Pub_point.put parent.pub ~filename:(cert_filename t.name) (Cert.encode t.cert);
    republish parent ~now);
  (* everything below was signed with the old key: re-sign in place *)
  List.iter (fun child -> reissue_child_cert t child ~now) t.children;
  List.iter (fun (filename, _) -> ignore (renew t ~filename ~now)) t.roas;
  republish t ~now

(* Re-sign a child's RC with this authority's current key (same subject key
   and resources, fresh serial). *)
and reissue_child_cert t (child : t) ~now =
  let serial = fresh_serial t in
  child.cert <-
    Cert.issue ~issuer_key:t.key.Rsa.private_ ~serial ~issuer:t.name ~subject:child.name
      ~public_key:child.key.Rsa.public ~resources:child.cert.Cert.resources ~not_before:now
      ~not_after:(Rtime.add now t.validity) ~is_ca:true ~crl_uri:(crl_filename t)
      ~aia_uri:(Pub_point.uri t.pub) ~repo_uri:(Pub_point.uri child.pub)
      ~manifest_uri:(manifest_filename child) ();
  Pub_point.put t.pub ~filename:(cert_filename child.name) (Cert.encode child.cert)

(* --- traversal helpers --- *)

let rec iter_descendants t ~f = List.iter (fun c -> f c; iter_descendants c ~f) t.children

let rec find_descendant t ~name =
  if t.name = name then Some t
  else List.find_map (fun c -> find_descendant c ~name) t.children

(* Full upkeep of an authority subtree: re-sign every RC and ROA and refresh
   each CRL/manifest window — what a healthy operator's cron job does each
   period.  The stall experiments run this every tick for everyone, so only
   a relying party that cannot *fetch* sees objects age toward expiry. *)
let maintain t ~now =
  let upkeep a =
    (match a.parent with
    | None ->
      (* the trust anchor re-signs its own certificate; same key, so TALs
         stay valid *)
      a.cert <-
        Cert.self_signed ~key:a.key ~subject:a.name ~resources:a.cert.Cert.resources
          ~not_before:now ~not_after:(Rtime.add now a.validity) ~repo_uri:(Pub_point.uri a.pub)
          ~manifest_uri:(manifest_filename a) ();
      Pub_point.put a.pub ~filename:(cert_filename a.name) (Cert.encode a.cert)
    | Some _ -> () (* re-signed by its parent's [upkeep] *));
    List.iter (fun child -> reissue_child_cert a child ~now) a.children;
    (* each renewal, then the refresh, as one batch *)
    ignore
      (batch a ~now
         (List.map (fun (filename, _) () -> ignore (renew a ~filename ~now)) a.roas
         @ [ (fun () -> ()) ]))
  in
  upkeep t;
  iter_descendants t ~f:upkeep

(* Every ROA currently published by [t] or any descendant, with its issuer. *)
let all_roas t =
  let acc = ref (List.map (fun (f, r) -> (t, f, r)) t.roas) in
  iter_descendants t ~f:(fun c -> acc := !acc @ List.map (fun (f, r) -> (c, f, r)) c.roas);
  !acc
