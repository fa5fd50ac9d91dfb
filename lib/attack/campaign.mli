(** Censorship campaigns: many targeted whacks with one objective.

    The paper's motivation is state-sponsored coercion.  A coerced authority
    rarely wants one ROA gone; it wants an AS, a network, or a country off
    the map.  Plans are sets of single-ROA whacks plus direct revocations
    for the manipulator's own ROAs. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

type objective =
  | Target_asns of int list  (** silence these origin ASes *)
  | Target_space of V4.Set.t (** silence everything overlapping this space *)

type step =
  | Whack_step of Whack.plan
  | Revoke_own of { filename : string; roa : Roa.t }

type plan = {
  steps : step list;
  unplannable : (string * string * string) list; (** issuer, filename, reason *)
}

val plan : manipulator:Authority.t -> objective:objective -> plan
(** Enumerate every matching ROA at or below the manipulator and plan its
    removal. *)

val reissue_count : plan -> int
(** Reissued objects the campaign requires — the paper's detectability
    currency. *)

val execute :
  manipulator:Authority.t -> plan -> now:Rtime.t -> int * (string * string * string) list
(** Execute each step, re-deriving whack plans against current state
    (earlier steps shift the atoms available to later ones).  Returns
    (executed count, failures). *)

(** {2 Bridging the jurisdiction dataset to a live hierarchy} *)

val hierarchy_of_dataset :
  Rpki_juris.Dataset.rc_record list ->
  Universe.t
  * (Rpki_juris.Country.rir * Authority.t) list
  * (Rpki_juris.Dataset.rc_record * Authority.t) list
(** Build a real certificate hierarchy from allocation records: one trust
    anchor per RIR present, one holder CA per RC, one ROA per
    suballocation — turning Table 4's "can whack" into an executable
    "does whack". *)

val asns_of_country : Rpki_juris.Dataset.rc_record list -> string -> int list
