(* Entry point: `dune exec bench/main.exe -- [--quick] [--json] [NAME...]`.

   [registry] lists every experiment: the paper's tables and figures, the
   extensions beyond them and the microbenchmarks (`perf`).  With no NAME
   every entry runs, in registry order.  `--quick` shrinks each one to a
   smoke pass; `--json` also writes BENCH_<name>.json for each entry that
   exports a JSON value.  A failed in-bench check prints `<name>:
   <message>` on stderr and exits 1. *)

type entry = { name : string; title : string; run : quick:bool -> Json.t option }

let registry =
  let entry name title run = { name; title; run } in
  let open Experiments in
  [ entry "fig2" "Figure 2: model RPKI (reconstructed from the paper's text)" fig2;
    entry "fig3" "Figure 3 / Section 3.1: ROAs whacked by their grandparent (Sprint)" fig3;
    entry "tab4" "Table 4: RCs covering countries outside their parent RIR's jurisdiction" tab4;
    entry "fig5" "Figure 5: route validity for 63.160.0.0/12 and its subprefixes" fig5;
    entry "tab6" "Table 6: impact of relying-party local policies" tab6;
    entry "se5" "Side Effect 5: a new covering ROA invalidates unprotected subprefix routes" se5;
    entry "se6" "Side Effect 6: a missing ROA makes a route invalid, not unknown" se6;
    entry "se7" "Side Effect 7 / Section 6: transient fault -> persistent failure" se7;
    entry "campaign" "Extension: a coerced RIR silences a country (Section 3.2, executed)" campaign;
    entry "adoption" "Extension: security benefit of partially deployed drop-invalid" adoption;
    entry "depth" "Extension: Side Effect 4 quantified — reissued objects vs target depth" depth;
    entry "sync-incremental"
      "Incremental sync: cold full validation vs. warm tick (1 point touched)" sync_incremental;
    entry "stall" "Stalloris: stall intensity x fetch policy (drop-invalid, perfect upkeep)" stall;
    entry "transparency"
      "Transparency: split-view detection (vantages x gossip period x stealth)" transparency;
    entry "restart" "Restart: durable state x disk faults x rollback adversary" restart;
    entry "multivantage" "Multi-vantage: shared validation plane (vantages x cache)" multivantage;
    entry "rtr" "RTR serving plane: encode-once deltas, batched notify (sessions x churn)" rtr;
    entry "soak" "Soak: long-run endurance (segments vs snapshots, eviction, traces)" soak;
    entry "scale" "Scale: split-view detection vs generated topology size" scale;
    entry "faultmix" "Fault mix: corpus faults x unsafe-VRP policy (graceful degradation)" faultmix;
    entry "gossip" "Gossip at scale: overlays, round caching, Byzantine equivocators" gossip;
    entry "perf" "Microbenchmarks (Bechamel, monotonic clock)" Perf.run ]

let () =
  let args = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "--quick" args and json = List.mem "--json" args in
  let names = List.filter (fun a -> a <> "--quick" && a <> "--json") args in
  let find name =
    match List.find_opt (fun e -> e.name = name) registry with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown experiment %S; known: %s\n" name
        (String.concat " " (List.map (fun e -> e.name) registry));
      exit 1
  in
  let selected = if names = [] then registry else List.map find names in
  List.iter
    (fun e ->
      Printf.printf "\n==== %s ====\n\n" e.title;
      match e.run ~quick with
      | exception Experiments.Check_failed msg ->
        flush stdout;
        Printf.eprintf "%s: %s\n" e.name msg;
        exit 1
      | Some value when json ->
        let file = Printf.sprintf "BENCH_%s.json" e.name in
        let oc = open_out file in
        output_string oc (Json.to_string value);
        output_char oc '\n';
        close_out oc;
        Printf.printf "(wrote %s)\n" file
      | Some _ | None -> ())
    selected
