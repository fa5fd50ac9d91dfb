(** The set of all publication points, addressable by URI — the stand-in for
    "repositories distributed throughout the Internet".

    The relying party resolves rsync URIs here, subject to a caller-supplied
    reachability oracle; the simulation layer wires that oracle to the BGP
    data plane, closing the paper's Figure 1 loop. *)

type t

val create : unit -> t

val add : t -> Pub_point.t -> unit
(** Raises [Invalid_argument] on a duplicate URI. *)

val find : t -> string -> Pub_point.t option
(** The point at a URI, from a hash index kept beside {!points}. *)

val find_exn : t -> string -> Pub_point.t

val points : t -> Pub_point.t list
(** Every point, the most recently added first. *)

val add_mirror : t -> of_uri:string -> Pub_point.t -> unit
(** Register a mirror of an existing point
    (draft-ietf-sidr-multiple-publication-points, the paper's ref [16]):
    the same objects served from a second location, ideally hosted outside
    the address space the objects themselves validate.  Raises
    [Invalid_argument] when the primary is unknown. *)

val mirrors_of : t -> string -> Pub_point.t list

val refresh_mirrors : t -> unit
(** Copy each primary's current files onto its mirrors.  Mirrors lag until
    refreshed, like real ones. *)

val add_rrdp : t -> of_uri:string -> Pub_point.t -> unit
(** Register an RRDP delta service (RFC 8182) for an existing primary.  The
    given point carries addressing only (the notification endpoint's URI,
    host address and AS), so a transport can price and fault the RRDP
    channel independently of the rsync primary.  Raises [Invalid_argument]
    when the primary is unknown or already has a service. *)

val rrdp_of : t -> string -> (Pub_point.t * Rrdp.server) option
(** The RRDP endpoint and server tracking a primary, if registered. *)

val refresh_rrdp : t -> unit
(** Version each RRDP server against its primary's current content.  Like
    mirrors, RRDP lags until refreshed. *)
