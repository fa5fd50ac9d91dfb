(** AS-level topology with Gao-Rexford business relationships.

    Customer-provider links form a DAG (enforced at insertion); peering
    links are symmetric.  The standard model of the BGP-security literature
    the paper builds on. *)

type rel = Customer | Provider | Peer

type t

val create : unit -> t
val add_as : t -> int -> unit

val providers : t -> int -> int list
val customers : t -> int -> int list
val peers : t -> int -> int list

val asns : t -> int list
(** All ASes, sorted. *)

val version : t -> int
(** Bumped on every mutation (AS or edge added) — lets derived structures
    (adjacency indexes, graph metadata) detect staleness cheaply. *)

val link : t -> provider:int -> customer:int -> unit
(** Add a customer-provider edge. Raises [Invalid_argument] on self links or
    provider cycles. *)

val peer : t -> int -> int -> unit
(** Add a symmetric peering. Raises [Invalid_argument] on self peering. *)

val neighbours : t -> int -> (int * rel) list
(** Each neighbour with {e its} relationship to the queried AS:
    [(n, Customer)] means [n] is a customer of the queried AS. *)

val degree : t -> int -> int
(** Total neighbour count (providers + customers + peers). *)
