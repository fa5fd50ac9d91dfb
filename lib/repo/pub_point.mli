(** A publication point: the rsync-served directory where one authority
    publishes everything it has issued (RFC 6481).

    The paper's Section 3 design decisions live here: objects are delivered
    out of band from a directory {e controlled by their issuer}, and an
    issuer may silently delete or overwrite anything in its own directory.

    The type is opaque; all mutation goes through {!put} / {!delete} /
    {!replace_files} / {!corrupt} so the point can maintain a cached
    content {!fingerprint} that relying parties use to skip re-validating
    unchanged points. *)

type t

val create : uri:string -> addr:Rpki_ip.Addr.V4.t -> host_asn:int -> t

val uri : t -> string
(** e.g. ["rsync://rpki.sprint.net/repo"]. *)

val addr : t -> Rpki_ip.Addr.V4.t
(** Where the repository host lives. *)

val host_asn : t -> int
(** The AS hosting the repository. *)

val put : t -> filename:string -> string -> unit
(** Publish or overwrite one file. *)

val delete : t -> filename:string -> unit
val get : t -> filename:string -> string option

val files : t -> (string * string) list
(** The listing, sorted by filename. *)

val filenames : t -> string list
val mem : t -> filename:string -> bool

val snapshot : t -> (string * string) list
(** A point-in-time copy, as an rsync client would obtain. *)

val replace_files : t -> (string * string) list -> unit
(** Overwrite the whole listing (mirror refresh). *)

val fingerprint : t -> string
(** SHA-256 over the sorted listing, cached until the next mutation, so
    an unchanged point answers in O(1). *)

val fingerprint_of_listing : (string * string) list -> string
(** The same digest computed over an arbitrary listing (e.g. a relying
    party's cached snapshot). *)

val corrupt : t -> filename:string -> byte_index:int -> bool
(** Flip one byte of a stored file (the transient corruption of Section 6);
    [false] when the file does not exist. *)
