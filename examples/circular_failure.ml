(* Section 6's circular dependency, as a watchable timeline.

   Run with: dune exec examples/circular_failure.exe

   Continental Broadband hosts its own RPKI repository at 63.174.23.0
   inside its own certified prefix.  A one-tick corruption of the ROA that
   validates the route to that repository becomes a *permanent* outage for
   a relying party that drops invalid routes — and heals by itself under
   depref-invalid.  This is Side Effect 7. *)

open Rpki_bgp
open Rpki_sim

let show policy =
  Printf.printf "\n=== relying party policy: %s ===\n" (Policy.to_string policy);
  let _, hist = Scenario.run_section6 { Scenario.section6 with policy } in
  List.iter
    (fun (r : Loop.tick_record) ->
      let mark =
        match r.Loop.time with
        | 3 -> "  <- transient fault: RP receives a corrupted ROA"
        | 4 -> "  <- repository repaired"
        | _ -> ""
      in
      Format.printf "%a%s@." Loop.pp_record r mark)
    hist;
  let final = List.nth hist (List.length hist - 1) in
  let up = List.assoc "continental-repo" final.Loop.probe_results in
  Printf.printf "outcome: continental repository is %s four ticks after the repair\n"
    (if up then "REACHABLE again" else "STILL UNREACHABLE")

let () =
  print_endline
    "Circularity: the ROA authorizing the route to Continental's repository is stored\n\
     AT that repository.  Lose the ROA and (under drop-invalid) you lose the route;\n\
     lose the route and you cannot re-fetch the ROA.";
  show Policy.Drop_invalid;
  show Policy.Depref_invalid;
  print_endline
    "\nThe tradeoff of Table 6, closed into a loop: the policy that protects BGP best\n\
     (drop invalid) is the one that turns a transient RPKI fault into a persistent one."
