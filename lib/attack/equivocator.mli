(** The Byzantine gossip adversary: a compromised vantage that equivocates
    {e inside gossip itself}, serving different signed tree heads to
    different peers.

    A {!Split_view} forks what an authority serves; this forks what a
    {e monitor} attests.  The attacker controls a vantage and keeps two
    relying parties under its name: the vantage's real one (syncing the
    honest view) and a {e shadow} — same name, hence the same
    deterministically-derived transparency key and log id — syncing
    through a transport the attacker also controls (typically with a
    {!Split_view} installed on it).  In gossip, receivers the attacker
    wants to keep deceived are served the shadow log; everyone else gets
    the honest one.  Each receiver sees a self-consistent, properly
    signed head sequence, so no [Inconsistent_heads] or
    [Bad_head_signature] ever fires: the equivocation is only visible if
    the deceived receiver also talks to an {e honest} vantage — the
    honest-majority / overlay-connectivity question [bench gossip]
    sweeps.

    The compromised vantage also stops pulling while the override is
    installed ({!Rpki_repo.Gossip.set_server}): a traitor would not
    report the forks it could see. *)

open Rpki_repo

type t

val plan :
  universe:Universe.t ->
  name:string ->
  shadow:Relying_party.t ->
  fork_to:(string -> bool) ->
  unit ->
  t
(** A campaign compromising vantage [name].  [shadow] must be a relying
    party created under the {e same} name (that is what makes its head
    signatures verify as the vantage's — raises [Invalid_argument]
    otherwise).  [fork_to receiver] decides, per gossip receiver, whether
    the shadow log or the vantage's honest log is served.  The shadow
    syncs from [universe] through its own private transport
    ({!shadow_transport}) at the start of every gossip round — install
    the view to equivocate about on that transport. *)

val name : t -> string

val shadow_transport : t -> Transport.t
(** The transport the shadow relying party syncs through.  Apply a
    {!Split_view} (or any fault/view) here to choose what the deceived
    receivers are told. *)

val served_forked : t -> int
(** How many gossip pulls were answered with the shadow log so far. *)

val served_honest : t -> int

val apply : t -> Gossip.t -> unit
(** Install the override on the mesh.  Raises [Invalid_argument] if the
    mesh has no vantage [name], or if the shadow's transparency key
    differs from the vantage's (the equivocation would be caught as a bad
    signature, not a fork). *)

val describe : t -> string
