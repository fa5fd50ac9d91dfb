(* The split-view ("mirror world") adversary: a misbehaving authority that
   shows one RPKI to its victim and another to the rest of the world.

   Whack changes what an authority publishes for *everyone*; Stall changes
   nothing but the transport.  Split_view is the stealthiest point in that
   design space: the authority (which holds all the keys) serves a forked
   copy of its own publication point to a single targeted relying-party
   vantage — the victim's ROA deleted, everything re-signed — while every
   other vantage keeps receiving the honest contents.  No single vantage
   can distinguish the fork from legitimate change: both views are
   internally consistent, properly signed, and fresh.

   The fork is installed as a per-URI view on the *victim's* transport
   (Transport.set_view): the paper's out-of-band rsync delivery means the
   repository decides per-client what to serve, so discriminating by
   requester costs the authority nothing.

   Detection is the transparency layer's job: the fork necessarily creates
   two observations with the same (publication point, manifest number) key
   and different content hashes, one in the victim's log and one in any
   honest vantage's — which gossip turns into verifiable fork evidence.

   Two stealth levels:
   - [Overt]: the target file is dropped from the served listing but the
     manifest still lists it, so the victim's own validation reports a
     missing-from-manifest issue — locally visible misbehavior.
   - [Stealthy]: the manifest is re-signed by the authority over the
     reduced listing, reusing the honest manifest number, windows and EE
     serial.  The victim sees a perfectly clean point; only cross-vantage
     comparison can catch it. *)

open Rpki_core
open Rpki_crypto
open Rpki_repo

type stealth = Overt | Stealthy

let stealth_to_string = function Overt -> "overt" | Stealthy -> "stealthy"

type t = {
  authority : Authority.t;
  target_filename : string;
  stealth : stealth;
  rng : Rpki_util.Rng.t; (* entropy for manifest re-signing *)
}

let plan ~authority ~target_filename ?(stealth = Stealthy) () =
  if not (Pub_point.mem (Authority.pub authority) ~filename:target_filename) then
    invalid_arg
      (Printf.sprintf "Split_view.plan: %s does not publish %s" (Authority.name authority)
         target_filename);
  { authority; target_filename; stealth;
    rng =
      Drbg.to_rng
        (Drbg.create ~seed:("split-view:" ^ Authority.name authority ^ ":" ^ target_filename)) }

let uri t = Pub_point.uri (Authority.pub t.authority)

(* The mirror world, recomputed per fetch so it tracks the honest view:
   whatever the authority currently publishes, minus the target — and under
   [Stealthy], with the manifest re-signed by the authority's own keys at
   the honest manifest number, so the fork is locally indistinguishable
   from the genuine article. *)
let forked_listing t () =
  let pub = Authority.pub t.authority in
  let mft_name = Authority.manifest_filename t.authority in
  let files = List.remove_assoc t.target_filename (Pub_point.snapshot pub) in
  match t.stealth with
  | Overt -> files
  | Stealthy -> (
    match List.assoc_opt mft_name files with
    | None -> files
    | Some mft_bytes -> (
      match Manifest.decode mft_bytes with
      | Error _ -> files
      | Ok honest ->
        let listed = List.filter (fun (name, _) -> name <> mft_name) files in
        let forked =
          Manifest.issue
            ~ca_key:(Authority.key t.authority).Rsa.private_
            ~ca_subject:(Authority.name t.authority)
            ~serial:honest.Manifest.ee.Cert.serial
            ~rng:t.rng
            ~ee_key:(Authority.ee_key t.authority)
            ~manifest_number:honest.Manifest.manifest_number
            ~this_update:honest.Manifest.this_update
            ~next_update:honest.Manifest.next_update
            ~files:listed ()
        in
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          ((mft_name, Manifest.encode forked) :: listed)))

(* Install the fork on the victim's transport.  Only that vantage sees the
   mirror world; every other transport keeps serving the honest listing. *)
let apply t transport = Transport.set_view transport ~uri:(uri t) (forked_listing t)

let lift t transport = Transport.clear_view transport ~uri:(uri t)

let describe t =
  Printf.sprintf "split-view (%s) of %s: victim is served %s without %s"
    (stealth_to_string t.stealth) (Authority.name t.authority) (uri t) t.target_filename
