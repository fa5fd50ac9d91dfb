(** Figure 5 machinery: the route-validity status of a prefix and all of its
    subprefixes, for a given origin AS. *)

open Rpki_ip

type length_summary = { len : int; valid : int; invalid : int; unknown : int }

val summarize_length :
  Origin_validation.index ->
  root:V4.Prefix.t ->
  len:int ->
  origin:int ->
  length_summary
(** Counts of length-[len] subprefixes of [root] in each state, computed
    with subtree pruning so [len] up to 24 over a /12 is cheap. *)

val grid :
  Origin_validation.index ->
  root:V4.Prefix.t ->
  min_len:int ->
  max_len:int ->
  origin:int ->
  length_summary list

val sample_rows :
  Origin_validation.index ->
  Route.t list ->
  (Route.t * Origin_validation.state * string) list
(** Each route with its state and a one-line explanation — the form in which
    the paper discusses Figure 5. *)
