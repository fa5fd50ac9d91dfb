(** Partial-deployment modelling (Side Effect 5).

    "A new ROA can cause many routes to become invalid": if a large network
    issues a covering ROA before its customers' subprefix ROAs exist, every
    unprotected customer route flips unknown -> invalid.  The model works at
    the VRP level; providers hold large prefixes, customers announce
    subprefixes with their own origins, adoption is the fraction of
    customers holding ROAs. *)

type spec = {
  n_providers : int;
  customers_per_provider : int;
  customer_adoption : float;
  seed : int;
}

val default_spec : spec
(** 50 providers x 25 customers. *)

type counts = { valid : int; invalid : int; unknown : int }

type row = {
  adoption : float;
  total_routes : int;
  before : counts; (** only customer ROAs exist *)
  after : counts;  (** providers issued covering ROAs *)
  flips : int;     (** routes that went unknown -> invalid *)
}

val run_once : spec -> row

val sweep : unit -> row list
(** The Side Effect 5 series on {!default_spec}: flips as a function of
    customer adoption (0, 0.25, 0.5, 0.75, 0.9 and 1). *)

type ordering = Cover_first | Subprefixes_first

val invalid_window : spec:spec -> ordering -> int
(** Routes invalid mid-deployment under each issuance order — the paper's
    deployment rule, quantified. *)
