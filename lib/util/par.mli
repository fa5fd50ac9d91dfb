(** Data-parallel map over OCaml 5 Domains. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a], computed on up to [domains] Domains
    (default [Domain.recommended_domain_count ()], capped at the length of
    [a]; with one, nothing is spawned).  Each Domain claims the next index
    from a shared counter, so uneven per-element costs balance out, and
    results are stored by index.  [f] must be safe to run on several
    Domains at once.

    If [f] raises, no further indices are claimed; every helper Domain is
    joined and the exception of the lowest failing index is re-raised —
    the one [Array.map] would raise. *)
