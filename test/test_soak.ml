(* Long-run endurance, tested as invariants rather than curves:

   - a multi-thousand-tick soak (the canned scenario, churn off) runs with
     flat memory: Gc live words and the base snapshot stay bounded, disk
     cost per save stays O(delta), and compaction keeps the segment chain
     short;
   - under churn with short validity windows, epoch eviction holds the
     Valcache resident population flat where the non-evicting run grows
     monotonically;
   - [Valcache.evict] and [Valcache.clear] are distinguishable by their
     counters: eviction accounts for what it drops, a wipe zeroes
     everything — so a clear can never masquerade as eviction. *)

open Rpki_repo
module Scenario = Rpki_sim.Scenario

let resident (s : Scenario.soak_sample) =
  match s.Scenario.so_residency with
  | None -> 0
  | Some rs -> rs.Valcache.rs_verdicts + rs.Valcache.rs_outcomes

let evicted (s : Scenario.soak_sample) =
  match s.Scenario.so_residency with
  | None -> 0
  | Some rs -> rs.Valcache.rs_verdicts_evicted + rs.Valcache.rs_outcomes_evicted

(* The satellite smoke: >= 2000 ticks under `dune runtest`, asserting the
   growth curves the refactor flattens actually stay flat. *)
let test_soak_flat_memory () =
  let r = Scenario.run_soak () in
  let samples = r.Scenario.so_samples in
  Alcotest.(check bool) "sampled the whole run" true (List.length samples >= 10);
  let first = List.hd samples in
  let final = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "ran >= 2000 ticks" true (final.Scenario.so_tick >= 2000);
  (* flat memory: the last sample's live words must stay within a small
     factor of the first sample's, 1900 ticks earlier (the compaction
     sawtooth makes them drift within a cycle, never across cycles) *)
  Alcotest.(check bool)
    (Printf.sprintf "live words flat (%d -> %d)" first.Scenario.so_live_words
       final.Scenario.so_live_words)
    true
    (final.Scenario.so_live_words <= 2 * first.Scenario.so_live_words);
  (* O(delta) saves: without churn the per-save disk cost is small and the
     base snapshot does not grow with tick count *)
  Alcotest.(check bool)
    (Printf.sprintf "bytes per save bounded (%.0f)" r.Scenario.so_bytes_per_save)
    true (r.Scenario.so_bytes_per_save < 5000.);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot bytes flat (%d -> %d)" first.Scenario.so_snapshot_bytes
       final.Scenario.so_snapshot_bytes)
    true
    (final.Scenario.so_snapshot_bytes <= 2 * max 1 first.Scenario.so_snapshot_bytes);
  (* compaction keeps the chain a restart must replay short *)
  Alcotest.(check bool) "segment chain bounded by the compaction period" true
    (List.for_all
       (fun (s : Scenario.soak_sample) ->
         s.Scenario.so_segments
         <= Scenario.default_soak.Scenario.sk_spec.Scenario.compact_every)
       samples)

(* Epoch eviction under churn: with per-tick re-issuance and short validity
   windows the evicting run's resident population plateaus, while the
   non-evicting run grows without bound. *)
let test_eviction_flattens_residency () =
  let config =
    { Scenario.sk_ticks = 160; sk_churn_every = 1; sk_sample_every = 32;
      sk_spec =
        { Scenario.default_soak.Scenario.sk_spec with
          Scenario.source =
            Scenario.Section6
              { Scenario.canned with validity = Some 24; refresh_interval = Some 24 };
          compact_every = 32 } }
  in
  let on = Scenario.run_soak ~config () in
  let off =
    Scenario.run_soak
      ~config:
        { config with
          Scenario.sk_spec = { config.Scenario.sk_spec with Scenario.valcache_evict = false } }
      ()
  in
  let last r =
    List.nth r.Scenario.so_samples (List.length r.Scenario.so_samples - 1)
  in
  let mid r = List.nth r.Scenario.so_samples (List.length r.Scenario.so_samples / 2) in
  Alcotest.(check bool) "eviction dropped entries" true (evicted (last on) > 0);
  Alcotest.(check bool)
    (Printf.sprintf "evicting run flat after warmup (%d @t%d vs %d final)"
       (resident (mid on)) (mid on).Scenario.so_tick (resident (last on)))
    true
    (resident (last on) <= resident (mid on) + resident (mid on) / 4);
  Alcotest.(check bool)
    (Printf.sprintf "non-evicting run monotone (%d mid, %d final)"
       (resident (mid off)) (resident (last off)))
    true
    (resident (last off) > resident (mid off));
  Alcotest.(check bool)
    (Printf.sprintf "eviction beats no eviction (%d < %d)" (resident (last on))
       (resident (last off)))
    true
    (resident (last on) < resident (last off))

(* Soak on a generated world: a [World] source swaps the canned rig
   for a synthesized one (world churn re-signs the generated root's
   subtree) without disturbing any endurance invariant. *)
let test_soak_on_generated_world () =
  let module World = Rpki_world.Synthesis in
  let module As_graph = Rpki_bgp.As_graph in
  let wspec =
    { World.default_spec with
      World.graph = { As_graph.default_spec with As_graph.ases = 80; seed = 5 };
      ca_min_cone = 8 }
  in
  let config =
    { Scenario.sk_ticks = 120; sk_churn_every = 8; sk_sample_every = 24;
      sk_spec =
        { Scenario.default_soak.Scenario.sk_spec with
          Scenario.source = Scenario.World (World.build wspec);
          compact_every = 32 } }
  in
  let r = Scenario.run_soak ~config () in
  let samples = r.Scenario.so_samples in
  let final = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "ran the full soak" true (final.Scenario.so_tick >= 120);
  Alcotest.(check bool) "saves happened" true (r.Scenario.so_saves > 0);
  Alcotest.(check bool) "segmented saves stay O(delta)" true
    (r.Scenario.so_bytes_per_save < 20000.);
  Alcotest.(check bool) "compaction bounds the chain" true
    (List.for_all (fun (s : Scenario.soak_sample) -> s.Scenario.so_segments <= 32) samples)

(* --- clear vs evict ----------------------------------------------------- *)

let outcome ~snap ~boundaries =
  { Valcache.o_parent_fp = "parent-fp"; o_snap_fp = snap; o_at = 1;
    o_boundaries = boundaries; o_vrps = []; o_vrp_hash = ""; o_issues = [];
    o_failed_resources = Rpki_core.Resources.empty;
    o_children = []; o_mft_number = 1; o_mft_hash = "" }

let test_clear_is_not_evict () =
  let vc = Valcache.create () in
  (* one dead outcome (every window closed), one live *)
  Valcache.store_point vc (outcome ~snap:"dead" ~boundaries:[ 1; 5 ]);
  Valcache.store_point vc (outcome ~snap:"live" ~boundaries:[ 1; 500 ]);
  let r0 = Valcache.residency vc in
  Alcotest.(check int) "two outcomes resident" 2 r0.Valcache.rs_outcomes;
  Valcache.evict vc ~now:100;
  let r1 = Valcache.residency vc in
  Alcotest.(check int) "evict drops only the dead outcome" 1 r1.Valcache.rs_outcomes;
  Alcotest.(check int) "evict accounts for the drop" 1 r1.Valcache.rs_outcomes_evicted;
  (* eviction is idempotent on the survivors and keeps accounting *)
  Valcache.evict vc ~now:100;
  let r2 = Valcache.residency vc in
  Alcotest.(check int) "second evict drops nothing" 1 r2.Valcache.rs_outcomes;
  Alcotest.(check int) "counter unchanged" 1 r2.Valcache.rs_outcomes_evicted;
  (* a wipe removes everything AND zeroes the counters: it reads as an
     operator reset, never as eviction *)
  Valcache.clear vc;
  let r3 = Valcache.residency vc in
  Alcotest.(check int) "clear empties the cache" 0 r3.Valcache.rs_outcomes;
  Alcotest.(check int) "clear zeroes the eviction counters" 0
    r3.Valcache.rs_outcomes_evicted

let test_evict_respects_open_windows () =
  let vc = Valcache.create () in
  Valcache.store_point vc (outcome ~snap:"half" ~boundaries:[ 1; 50; 500 ]);
  Valcache.evict vc ~now:100;
  let r = Valcache.residency vc in
  (* one boundary still ahead: the outcome can still answer a lookup *)
  Alcotest.(check int) "outcome with an open window survives" 1 r.Valcache.rs_outcomes;
  Valcache.evict vc ~now:501;
  let r = Valcache.residency vc in
  Alcotest.(check int) "dropped once every window closed" 0 r.Valcache.rs_outcomes

let () =
  Alcotest.run "soak"
    [ ( "endurance",
        [ Alcotest.test_case "2000-tick soak runs with flat memory" `Slow
            test_soak_flat_memory;
          Alcotest.test_case "epoch eviction flattens residency under churn" `Quick
            test_eviction_flattens_residency;
          Alcotest.test_case "soak runs on a generated world" `Slow
            test_soak_on_generated_world ] );
      ( "clear-vs-evict",
        [ Alcotest.test_case "clear zeroes counters, evict accounts" `Quick
            test_clear_is_not_evict;
          Alcotest.test_case "eviction waits for every window to close" `Quick
            test_evict_respects_open_windows ] ) ]
