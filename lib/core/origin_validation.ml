(* Route-origin validation (RFC 6811 / RFC 6483), the semantics at the heart
   of Section 4 of the paper.

   Given the relying party's set of validated ROA payloads, each BGP route is
   classified:

   - [Valid]   — some VRP matches: same origin AS, VRP prefix covers the
                 route's prefix, and the route's length <= maxLength;
   - [Unknown] — no VRP even covers the route's prefix (the RFC's NotFound);
   - [Invalid] — some VRP covers the prefix, but none matches.

   The index is a prefix trie so classification of a route needs only the
   VRPs on its covering path.  The trie is never rebuilt from scratch on a
   steady-state tick: {!apply_diff} patches the nodes a sync's VRP diff
   touches, which is what makes the relying party's warm tick cheap. *)

open Rpki_ip

type state = Valid | Invalid | Unknown

let state_to_string = function Valid -> "valid" | Invalid -> "invalid" | Unknown -> "unknown"
let pp_state fmt s = Format.pp_print_string fmt (state_to_string s)
let equal_state (a : state) b = a = b

type index = { trie : Vrp.t list V4.Trie.t; count : int }

let empty_index = { trie = V4.Trie.empty; count = 0 }

(* The index is a set: each VRP appears at most once at its prefix node. *)
let node_mem vrps vrp = List.exists (Vrp.equal vrp) vrps

let add_vrps idx vrps =
  List.fold_left
    (fun idx (vrp : Vrp.t) ->
      match V4.Trie.find_exact idx.trie vrp.Vrp.prefix with
      | Some existing when node_mem existing vrp -> idx
      | Some existing ->
        { trie = V4.Trie.insert idx.trie vrp.Vrp.prefix (vrp :: existing);
          count = idx.count + 1 }
      | None ->
        { trie = V4.Trie.insert idx.trie vrp.Vrp.prefix [ vrp ]; count = idx.count + 1 })
    idx vrps

let remove_vrps idx vrps =
  List.fold_left
    (fun idx (vrp : Vrp.t) ->
      match V4.Trie.find_exact idx.trie vrp.Vrp.prefix with
      | None -> idx
      | Some existing ->
        if not (node_mem existing vrp) then idx
        else begin
          match List.filter (fun v -> not (Vrp.equal v vrp)) existing with
          | [] -> { trie = V4.Trie.remove idx.trie vrp.Vrp.prefix; count = idx.count - 1 }
          | rest -> { trie = V4.Trie.insert idx.trie vrp.Vrp.prefix rest; count = idx.count - 1 }
        end)
    idx vrps

let apply_diff idx (d : Vrp.diff) = add_vrps (remove_vrps idx d.Vrp.removed) d.Vrp.added

let build vrps = add_vrps empty_index vrps

(* All VRPs whose prefix covers [prefix]. *)
let covering_vrps idx prefix = List.concat_map snd (V4.Trie.covering idx.trie prefix)

let fold_covering idx prefix ~init ~f =
  List.fold_left
    (fun acc (_, vrps) -> List.fold_left f acc vrps)
    init
    (V4.Trie.covering idx.trie prefix)

let fold_covered idx prefix ~init ~f =
  List.fold_left (fun acc (p, vrps) -> f acc p vrps) init (V4.Trie.covered idx.trie prefix)

let covered_strictly_below idx prefix =
  fold_covered idx prefix ~init:false ~f:(fun acc p _ ->
      acc || not (V4.Prefix.equal p prefix))

let matches (vrp : Vrp.t) (route : Route.t) =
  vrp.Vrp.asn = route.Route.origin
  && vrp.Vrp.asn <> 0 (* AS0 ROAs authorize no one, RFC 6483 section 4 *)
  && V4.Prefix.covers vrp.Vrp.prefix route.Route.prefix
  && V4.Prefix.len route.Route.prefix <= vrp.Vrp.max_len

(* Classification is a single covering walk: Unknown until a covering VRP is
   seen, Valid as soon as one matches. *)
let classify idx (route : Route.t) =
  fold_covering idx route.Route.prefix ~init:Unknown ~f:(fun st vrp ->
      match st with
      | Valid -> Valid
      | Invalid | Unknown -> if matches vrp route then Valid else Invalid)

(* The matching VRPs (evidence for a Valid answer) and covering VRPs
   (evidence for an Invalid answer). *)
let explain idx (route : Route.t) =
  let covering = covering_vrps idx route.Route.prefix in
  let matching = List.filter (fun vrp -> matches vrp route) covering in
  (classify idx route, matching, covering)
