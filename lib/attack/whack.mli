(** The whacking engine (the paper's Section 3).

    "We say that an RPKI manipulator {e whacks} a target ROA" — by
    revocation, stealthy deletion, or the targeted RC-shrinking attacks of
    Section 3.1.  This module plans and executes the targeted attacks
    against a live authority hierarchy, predicting collateral damage before
    acting.

    Planning: find a sliver of the target ROA's address space overlapping no
    other object on the certification path (an "atom"); schedule a
    make-before-break reissue for anything the sliver unavoidably damages
    (sibling ROAs re-signed by the manipulator, intermediate RCs
    re-certified directly under it); finally overwrite the manipulator's
    child RC with the sliver carved out.  A grandchild target needs no RC
    reissues (Side Effect 3); each extra level costs one reissued RC (Side
    Effect 4) — the paper's detectability gradient. *)

open Rpki_core
open Rpki_repo
open Rpki_ip

type reissue =
  | Reissue_roa of { asid : int; v4_entries : Roa.v4_entry list; original_issuer : string }
  | Reissue_rc of { subject : string; new_resources : Resources.t }

type plan = {
  manipulator : string;
  child : string;         (** the manipulator's direct child whose RC shrinks *)
  path : string list;     (** authorities from child down to the target's issuer *)
  target_issuer : string;
  target_filename : string;
  target : Roa.t;
  sliver : V4.Set.t;      (** address space carved out of the chain *)
  shrink_child_to : Resources.t;
  reissues : reissue list;
}

exception Cannot_whack of string

val plan_targeted :
  manipulator:Authority.t -> target_issuer:string -> target_filename:string -> plan
(** Build the targeted-whack plan.  Raises {!Cannot_whack} when the target
    is not a strict descendant's ROA. *)

val needs_make_before_break : plan -> bool

val execute :
  manipulator:Authority.t -> plan -> now:Rtime.t -> [ `Roa of string | `Rc of string ] list
(** Apply the plan: reissues first (make before…), then the RC overwrite
    (…break).  Returns the filenames of reissued objects. *)

val describe : plan -> string
(** Human-readable rendering of the plan. *)
