(* Byzantine gossip equivocator: see the .mli for the model.  The
   mechanics ride on Gossip.set_server — per-receiver choice of which
   same-named relying party answers a pull — plus the round-start refresh
   hook, which keeps the shadow's log in sync with whatever view its
   private transport serves. *)

open Rpki_repo

type t = {
  name : string;
  shadow : Relying_party.t;
  shadow_transport : Transport.t;
  universe : Universe.t;
  fork_to : string -> bool;
  mutable served_forked : int;
  mutable served_honest : int;
}

let plan ~universe ~name ~shadow ~fork_to () =
  if not (String.equal (Relying_party.name shadow) name) then
    invalid_arg
      (Printf.sprintf
         "Equivocator.plan: shadow is named %S, not %S — a differently-named \
          log signs under a different key and would not equivocate"
         (Relying_party.name shadow) name);
  { name; shadow; shadow_transport = Transport.create (); universe;
    fork_to; served_forked = 0; served_honest = 0 }

let name t = t.name
let shadow_transport t = t.shadow_transport
let served_forked t = t.served_forked
let served_honest t = t.served_honest

let key_id rp = Rpki_crypto.Rsa.key_id (Relying_party.transparency_key rp)

let apply t g =
  let v =
    match
      List.find_opt (fun v -> String.equal v.Gossip.v_name t.name) (Gossip.vantages g)
    with
    | Some v -> v
    | None -> invalid_arg ("Equivocator.apply: no vantage named " ^ t.name)
  in
  if not (String.equal (key_id t.shadow) (key_id v.Gossip.v_rp)) then
    invalid_arg
      "Equivocator.apply: shadow transparency key differs from the vantage's";
  Gossip.set_server g ~name:t.name
    ~refresh:(fun ~now ->
      ignore
        (Relying_party.sync t.shadow ~now ~universe:t.universe
           ~transport:t.shadow_transport ()))
    (fun ~receiver ->
      if t.fork_to receiver then begin
        t.served_forked <- t.served_forked + 1;
        t.shadow
      end
      else begin
        t.served_honest <- t.served_honest + 1;
        (* read through the vantage record: a restart swaps v_rp and the
           equivocator keeps serving whatever the vantage currently runs *)
        v.Gossip.v_rp
      end)

let describe t =
  Printf.sprintf
    "gossip equivocator at %s: shadow log to targeted receivers (%d served), \
     honest log to the rest (%d served); the traitor itself pulls nothing"
    t.name t.served_forked t.served_honest
