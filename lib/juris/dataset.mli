(** Allocation datasets for the cross-jurisdiction analysis (Table 4).

    Two sources stand in for the paper's BGP/RIR/CAIDA feeds: the embedded
    fixture realising Table 4's exact rows, and a calibrated synthetic
    generator.  Both produce the same record shape. *)

open Rpki_ip

type suballocation = {
  sub_prefix : V4.Prefix.t;
  customer_as : int;
  country : string;
}

type rc_record = {
  holder : string;
  rc_prefix : V4.Prefix.t;
  parent_rir : Country.rir;
  holder_country : string;
  suballocations : suballocation list;
}

val paper_rows : (string * string * Country.rir * string * string list) list
(** Table 4 verbatim: holder, RC prefix, serving RIR, holder country, and
    the out-of-jurisdiction countries the paper reports. *)

val paper_fixture : unit -> rc_record list
(** The nine RCs with synthetic suballocations realising the reported
    country sets (one customer per country, placed deterministically). *)

type synthetic_spec = {
  providers : int;
  customers_per_provider : int;
  cross_border_fraction : float;
  seed : int;
}

val default_synthetic : synthetic_spec
val synthetic : synthetic_spec -> rc_record list
