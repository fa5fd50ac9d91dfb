(** An RRDP-style delta protocol (RFC 8182, simplified): serial-numbered
    deltas over a notification file, with snapshot fallback.

    The paper predates RRDP, but its Section 6 point — RPKI delivery rides
    over the very TCP/IP routes the RPKI validates — is
    delivery-protocol-independent, and modelling both rsync-style and
    RRDP-style sync lets the experiments say so. *)

type publish_el = { filename : string; bytes : string }
type withdraw_el = { w_filename : string; w_hash : string }

type delta = {
  d_serial : int;
  publishes : publish_el list;
  withdraws : withdraw_el list;
}

type server

val create : ?session_seed:string -> ?history_limit:int -> Pub_point.t -> server
(** Track one publication point; the session id is derived from the seed
    and the point's URI. *)

val publish_now : server -> delta option
(** Version the point's current content; [None] when nothing changed. *)

type client
(** Opaque client state: (session, serial) plus the mirrored files. *)

val create_client :
  ?serial:int -> ?files:(string * string) list -> unit -> client
(** A fresh client knows nothing; the optional arguments seed a client at a
    chosen (serial, files) state, e.g. to simulate desync.  The session is
    learnt from the first notification. *)

exception Desync of string

val apply_delta : client -> delta -> unit
(** Raises {!Desync} on serial gaps, withdraws of absent files, or withdraw
    hash mismatches. *)

type sync_kind = Up_to_date | Applied_deltas of int | Full_snapshot

val sync : client -> server -> sync_kind
(** One RRDP round: notification, then deltas or snapshot. *)

val client_files : client -> (string * string) list
(** The client's state, sorted by filename. *)
