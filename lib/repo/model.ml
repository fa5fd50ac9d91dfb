(* The paper's model RPKI (Figure 2), reconstructed from the text.

   The figure itself is an image; every object below is pinned by a claim in
   the prose:

   - ARIN certifies Sprint for 63.160.0.0/12 (Section 2, Table 4);
   - Sprint issues exactly two RCs (ETB S.A. ESP., Continental Broadband)
     and two ROAs, the two ROAs carrying maxLength 24 (Section 2);
   - Continental Broadband issues five ROAs, among them the two whacking
     targets (63.174.16.0/20, AS 17054) and (63.174.16.0/22, AS 7341):
     revoking CB's RC whacks the target "plus four additional ROAs"
     (Section 3.1);
   - Sprint can whack (63.174.16.0/20, AS 17054) cleanly by reissuing CB's
     RC as [63.174.16.0-63.174.23.255] u [63.174.25.0-63.174.31.255], i.e.
     by carving out 63.174.24.0/24 (Section 3.1) — so no other CB object
     may overlap that /24;
   - routes for 63.160.0.0/12 are "unknown" while routes for 63.174.17.0/24
     are "invalid" (Section 4 / Figure 5 left) — so no ROA covers the /12
     top but the /20 ROA exists;
   - if the ROA (63.174.16.0/22, AS 7341) goes missing, its route turns
     invalid because of the covering /20 ROA (Side Effect 6);
   - Continental Broadband (AS 17054) hosts its own repository at
     63.174.23.0 (Section 6). *)

open Rpki_core
open Rpki_ip

type t = {
  universe : Universe.t;
  arin : Authority.t;
  sprint : Authority.t;
  etb : Authority.t;
  continental : Authority.t;
  (* ROA publication filenames, keyed for the experiments *)
  roa_sprint_1 : string; (* (63.161.0.0/16-24, AS 1239) *)
  roa_etb : string;      (* (63.170.0.0/16, AS 19429) *)
  roa_target20 : string; (* (63.174.16.0/20, AS 17054) — whack target 1 *)
  roa_target22 : string; (* (63.174.16.0/22, AS 7341)  — whack target 2 *)
  roa_cb_25 : string;    (* (63.174.25.0/24, AS 17054) *)
  roa_cb_26 : string;    (* (63.174.26.0/24, AS 17054) *)
  roa_cb_28 : string;    (* (63.174.28.0/24, AS 17054) *)
}

let as_sprint = 1239
let as_etb = 19429
let as_continental = 17054
let as_customer7341 = 7341

(* Where each repository is hosted.  Continental Broadband's address is the
   paper's 63.174.23.0 — inside its own certified space, which is what makes
   Section 6 circular. *)
let arin_repo_addr = V4.addr_of_string_exn "199.5.26.10"
let sprint_repo_addr = V4.addr_of_string_exn "63.161.1.10"
let etb_repo_addr = V4.addr_of_string_exn "63.170.0.10"
let continental_repo_addr = V4.addr_of_string_exn "63.174.23.0"

let as_arin_host = 3856 (* ARIN's own network *)

let build ?(validity = Authority.default_validity) ?(refresh_interval = Authority.default_refresh) () =
  let now = Rtime.epoch in
  let universe = Universe.create () in
  (* children inherit validity / refresh_interval from their parent *)
  let arin =
    Authority.create_trust_anchor ~name:"ARIN" ~resources:(Resources.of_v4_strings [ "63.0.0.0/8" ])
      ~uri:"rsync://rpki.arin.net/repo" ~addr:arin_repo_addr ~host_asn:as_arin_host ~now ~universe
      ~validity ~refresh_interval ()
  in
  let sprint =
    Authority.create_child arin ~name:"Sprint"
      ~resources:(Resources.of_v4_strings [ "63.160.0.0/12" ])
      ~uri:"rsync://rpki.sprint.net/repo" ~addr:sprint_repo_addr ~host_asn:as_sprint ~now
      ~universe ()
  in
  let etb =
    Authority.create_child sprint ~name:"ETB"
      ~resources:(Resources.of_v4_strings [ "63.170.0.0/16" ])
      ~uri:"rsync://rpki.etb.net.co/repo" ~addr:etb_repo_addr ~host_asn:as_etb ~now ~universe ()
  in
  let continental =
    Authority.create_child sprint ~name:"Continental"
      ~resources:(Resources.of_v4_strings [ "63.174.16.0/20" ])
      ~uri:"rsync://rpki.continental.net/repo" ~addr:continental_repo_addr
      ~host_asn:as_continental ~now ~universe ()
  in
  let roa_sprint_1, _ =
    Authority.issue_simple_roa sprint ~asid:as_sprint ~prefix:(V4.p "63.161.0.0/16") ~max_len:24
      ~now ()
  in
  (* (63.168.0.0/16-24, AS 1239) *)
  let _ =
    Authority.issue_simple_roa sprint ~asid:as_sprint ~prefix:(V4.p "63.168.0.0/16") ~max_len:24
      ~now ()
  in
  let roa_etb, _ =
    Authority.issue_simple_roa etb ~asid:as_etb ~prefix:(V4.p "63.170.0.0/16") ~now ()
  in
  let roa_target20, _ =
    Authority.issue_simple_roa continental ~asid:as_continental ~prefix:(V4.p "63.174.16.0/20")
      ~now ()
  in
  let roa_target22, _ =
    Authority.issue_simple_roa continental ~asid:as_customer7341 ~prefix:(V4.p "63.174.16.0/22")
      ~now ()
  in
  let roa_cb_25, _ =
    Authority.issue_simple_roa continental ~asid:as_continental ~prefix:(V4.p "63.174.25.0/24")
      ~now ()
  in
  let roa_cb_26, _ =
    Authority.issue_simple_roa continental ~asid:as_continental ~prefix:(V4.p "63.174.26.0/24")
      ~now ()
  in
  let roa_cb_28, _ =
    Authority.issue_simple_roa continental ~asid:as_continental ~prefix:(V4.p "63.174.28.0/24")
      ~now ()
  in
  { universe; arin; sprint; etb; continental; roa_sprint_1; roa_etb; roa_target20;
    roa_target22; roa_cb_25; roa_cb_26; roa_cb_28 }

(* The new large-prefix ROA of Figure 5 (right) / Side Effect 5. *)
let add_fig5_right_roa t ~now =
  fst
    (Authority.issue_roa t.sprint ~asid:as_sprint
       ~v4_entries:[ Roa.entry ~max_len:13 (V4.p "63.160.0.0/12") ]
       ~now ())

(* A relying party configured with ARIN as its single trust anchor. *)
let relying_party ?(name = "rp0") ?(asn = 7018) ?grace t =
  Relying_party.create ~name ~asn ~tals:[ Relying_party.tal_of_authority t.arin ] ?grace ()

(* Print the hierarchy — the textual rendering of Figure 2. *)
let render t =
  let buf = Buffer.create 512 in
  let rec go (a : Authority.t) depth =
    Buffer.add_string buf
      (Printf.sprintf "%s%s  RC [%s]\n"
         (String.make (2 * depth) ' ')
         (Authority.name a)
         (Resources.to_string (Authority.cert a).Cert.resources));
    List.iter
      (fun (_, roa) ->
        Buffer.add_string buf
          (Printf.sprintf "%s- %s\n" (String.make ((2 * depth) + 2) ' ') (Roa.to_string roa)))
      (Authority.roas a);
    List.iter (fun c -> go c (depth + 1)) (Authority.children a)
  in
  go t.arin 0;
  Buffer.contents buf
