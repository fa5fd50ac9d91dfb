(** Countries and RIR service regions (the paper's Section 3.2).

    Jurisdiction at the granularity the paper uses: ISO 3166 alpha-2 codes
    mapped to the serving RIR.  Covers every code in the paper's Table 4
    plus enough of each region for the synthetic generator. *)

type rir = ARIN | RIPE | APNIC | LACNIC | AFRINIC

val rir_to_string : rir -> string

val table : (string * rir) list
(** country code -> serving RIR *)

val rir_of_country : string -> rir option
val known : string -> bool
val countries_of_rir : rir -> string list

val in_jurisdiction : rir:rir -> string -> bool
(** Is the RIR accountable to this country?  Unknown codes are
    conservatively out of region. *)
