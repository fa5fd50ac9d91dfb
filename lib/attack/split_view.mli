(** The split-view ("mirror world") adversary: an authority that serves a
    forked copy of its own publication point to one targeted relying-party
    vantage while everyone else keeps seeing the honest contents.

    This is the end of the paper's stealth spectrum: {!Whack} changes what
    everyone sees, {!Stall} only delays, but a split view is — per vantage —
    indistinguishable from legitimate operation.  Under [Stealthy] the
    authority re-signs the manifest over the reduced listing with its own
    keys, reusing the honest manifest number and validity windows, so the
    victim's local validation is perfectly clean; the targeted ROA's VRPs
    simply never materialize at that vantage.  Detection requires comparing
    observations {e across} vantages, which is what the transparency log
    plus {!Rpki_repo.Gossip} provide: the fork necessarily yields two
    verifiable observations with the same (publication point, manifest
    number) key and different content.

    The fork is installed as a per-URI view on the victim's {!Transport}
    ({!Rpki_repo.Transport.set_view}) — the out-of-band rsync delivery model
    means the repository chooses per client what to serve. *)

open Rpki_repo

type stealth =
  | Overt     (** drop the file but keep the honest manifest: the victim's
                  own validation reports it missing *)
  | Stealthy  (** re-sign the manifest over the reduced listing: locally
                  clean, only cross-vantage comparison can catch it *)

val stealth_to_string : stealth -> string

type t
(** An immutable split-view campaign: authority, target file, stealth. *)

val plan :
  authority:Authority.t -> target_filename:string -> ?stealth:stealth -> unit -> t
(** Fork the authority's publication point by suppressing
    [target_filename] (default [Stealthy]).  Raises [Invalid_argument] if
    the authority does not currently publish that file. *)

val apply : t -> Transport.t -> unit
(** Serve the fork to whoever fetches through this transport.  The forked
    listing is recomputed per fetch from the authority's current honest
    contents, so it tracks legitimate republishes. *)

val lift : t -> Transport.t -> unit
(** Stop discriminating: the transport sees honest contents again. *)

val describe : t -> string
