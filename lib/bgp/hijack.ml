(* Hijack scenario construction (the attacks the RPKI is designed to stop,
   Section 1 of the paper). *)

open Rpki_ip

type kind =
  | Prefix_hijack                          (* announce the victim's exact prefix *)
  | Subprefix_hijack of V4.Prefix.t        (* announce this subprefix of the victim's *)

(* The subprefix of [victim_prefix] at length [len] containing [addr] — the
   part of the victim's space the hijacker actually wants. *)
let subprefix_containing ~victim_prefix ~addr ~len =
  if len <= V4.Prefix.len victim_prefix || len > 32 then
    invalid_arg "Hijack.subprefix_containing: length must be strictly longer";
  if not (V4.Prefix.contains_addr victim_prefix addr) then
    invalid_arg "Hijack.subprefix_containing: address outside victim prefix";
  V4.Prefix.make addr len

(* The announcements present during an attack: the victim's legitimate
   origination plus the attacker's. *)
let announcements ~victim_prefix ~victim_as ~attacker_as kind : Propagation.announcement list =
  let legit = { Propagation.prefix = victim_prefix; origin = victim_as } in
  match kind with
  | Prefix_hijack -> [ legit; { Propagation.prefix = victim_prefix; origin = attacker_as } ]
  | Subprefix_hijack sub ->
    if not (V4.Prefix.covers victim_prefix sub) || V4.Prefix.equal victim_prefix sub then
      invalid_arg "Hijack.announcements: not a strict subprefix of the victim's";
    [ legit; { Propagation.prefix = sub; origin = attacker_as } ]
