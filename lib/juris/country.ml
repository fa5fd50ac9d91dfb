(* Countries and RIR service regions (Section 3.2).

   Jurisdiction is modelled at the granularity the paper uses: ISO 3166
   alpha-2 codes, each mapped to the RIR that serves it.  The mapping covers
   every code appearing in the paper's Table 4 plus enough of each region to
   drive the synthetic-deployment generator. *)

type rir = ARIN | RIPE | APNIC | LACNIC | AFRINIC

let rir_to_string = function
  | ARIN -> "ARIN"
  | RIPE -> "RIPE"
  | APNIC -> "APNIC"
  | LACNIC -> "LACNIC"
  | AFRINIC -> "AFRINIC"

(* country code -> serving RIR *)
let table =
  [ (* ARIN: North America and parts of the Caribbean *)
    ("US", ARIN); ("CA", ARIN); ("PR", ARIN);
    (* RIPE: Europe, Middle East, Central Asia *)
    ("FR", RIPE); ("NL", RIPE); ("GB", RIPE); ("RU", RIPE); ("IT", RIPE); ("ES", RIPE);
    ("SE", RIPE); ("DE", RIPE); ("EU", RIPE); ("YE", RIPE); ("AE", RIPE); ("TR", RIPE);
    ("CH", RIPE); ("PL", RIPE);
    (* APNIC: Asia-Pacific, including the US Pacific territories (Guam,
       American Samoa) — which is what puts them outside ARIN's reach in
       the paper's Table 4 *)
    ("CN", APNIC); ("TW", APNIC); ("JP", APNIC); ("AU", APNIC); ("IN", APNIC); ("HK", APNIC);
    ("PH", APNIC); ("SG", APNIC); ("MH", APNIC); ("KR", APNIC); ("ID", APNIC); ("NZ", APNIC);
    ("GU", APNIC); ("AS", APNIC);
    (* LACNIC: Latin America & Caribbean (incl. the former Netherlands
       Antilles) *)
    ("MX", LACNIC); ("GT", LACNIC); ("CO", LACNIC); ("BO", LACNIC); ("EC", LACNIC);
    ("HN", LACNIC); ("NI", LACNIC); ("BR", LACNIC); ("AR", LACNIC); ("CL", LACNIC);
    ("PE", LACNIC); ("VE", LACNIC); ("AN", LACNIC);
    (* AFRINIC *)
    ("ZW", AFRINIC); ("ZA", AFRINIC); ("NG", AFRINIC); ("KE", AFRINIC); ("EG", AFRINIC);
    ("GH", AFRINIC) ]

let rir_of_country cc = List.assoc_opt cc table

let known cc = rir_of_country cc <> None

let countries_of_rir rir = List.filter_map (fun (cc, r) -> if r = rir then Some cc else None) table

(* Is [cc] inside the given RIR's service region (i.e. the RIR is
   accountable to it)? Unknown codes are conservatively out of region. *)
let in_jurisdiction ~rir cc = rir_of_country cc = Some rir
