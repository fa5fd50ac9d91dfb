(** Third-party fault injection against publication points.

    These are {e not} authority operations: they model filesystem
    corruption, server failures and expiry (Side Effect 6's "information can
    be missing for a variety of reasons"), so they do not update the
    manifest — leaving the inconsistencies a manifest exists to expose. *)

type applied = {
  undo : unit -> unit; (** repair the fault (restore the previous bytes) *)
}

val delete_object : Pub_point.t -> filename:string -> applied option
(** [None] when the file does not exist. *)

val corrupt_object :
  Pub_point.t -> filename:string -> unit -> applied option
(** Flip the object's eighth byte. *)

val wipe : Pub_point.t -> applied
(** Remove every file: total repository loss. *)

val repair : applied -> unit
