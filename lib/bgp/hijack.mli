(** Hijack scenario construction — the attacks the RPKI is designed to stop
    (the paper's Section 1). *)

open Rpki_ip

type kind =
  | Prefix_hijack                   (** announce the victim's exact prefix *)
  | Subprefix_hijack of V4.Prefix.t (** announce this subprefix of the victim's *)

val subprefix_containing :
  victim_prefix:V4.Prefix.t -> addr:Addr.V4.t -> len:int -> V4.Prefix.t
(** The length-[len] subprefix of the victim's prefix containing [addr] —
    the part of the victim's space the hijacker actually wants.  Raises
    [Invalid_argument] when [len] is not strictly longer or [addr] is
    outside. *)

val announcements :
  victim_prefix:V4.Prefix.t ->
  victim_as:int ->
  attacker_as:int ->
  kind ->
  Propagation.announcement list
(** The announcements present during the attack: the victim's legitimate
    origination plus the attacker's. *)
