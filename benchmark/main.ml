(* The closed-loop tick benchmark.

     main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--json FILE]

   --workload W  run one workload (reference, vantage-fanout, world-large,
                 roa-churn); without it every workload runs in a child
                 process of its own, so one workload's heap cannot slow the
                 next
   --seed N      seeds the overlay shuffle and the workload's churn and
                 refresh picks (11); the world and fault schedule are fixed
   --seconds S   an end-to-end run repeats its part (set-up plus one
                 episode) at least three times and until S seconds have
                 passed; a traced run keeps ticking past its episode until
                 then (10)
   --trace 1     the traced run: per-layer metrics instead of end-to-end
   --quick       the twin-identity check on shrunk worlds: Loop.step and
                 Traced_tick.step must produce identical tick records
   --json FILE   also write the result, with its digest, to FILE

   Each part of an end-to-end run is a process of its own, this executable
   with --part (Workload.run_part).

   Every metric is printed as "name value unit"; the last line of standard
   output is one JSON object {correct, attempted, failed, metrics}.  The
   exit code is 0 only when every check passed. *)

module H = Harness

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  json : string option;
  part : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] \
     [--json FILE]";
  exit 2

let parse argv =
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_arg n } rest
    | "--seconds" :: s :: rest ->
      go { o with seconds = (match float_of_string_opt s with Some f -> f | None -> usage ()) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--part" :: rest -> go { o with part = true } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = 11; seconds = 10.; trace = false; quick = false; json = None;
      part = false }
    (List.tl (Array.to_list argv))

let metrics_json metrics =
  H.Object
    (List.map
       (fun (m : Workload.metric) ->
         (m.Workload.m_name,
          H.Object [ ("value", H.Float m.Workload.value); ("unit", H.String m.Workload.unit_) ]))
       metrics)

let summary ~correct ~attempted ~failed metrics =
  H.Object
    [ ("correct", H.Bool correct); ("attempted", H.Int attempted); ("failed", H.Int failed);
      ("metrics", metrics) ]

let write_file path v =
  let oc = open_out path in
  output_string oc (H.to_json v);
  output_char oc '\n';
  close_out oc

(* Run this executable with [args]; its exit status and output lines. *)
let spawn args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, List.rev !lines)

let last_json lines =
  match List.rev lines with
  | last :: _ -> ( try Some (H.of_json last) with H.Parse_error _ -> None)
  | [] -> None

let parts o (w : Workload.t) =
  let t0 = H.now_ns () in
  let rec go acc k =
    if k >= 3 && H.elapsed_s t0 >= o.seconds then Ok (List.rev acc)
    else
      let status, lines =
        spawn [ "--workload"; w.Workload.name; "--seed"; string_of_int o.seed; "--part" ]
      in
      match (status, Option.bind (last_json lines) Workload.part_of_json) with
      | Unix.WEXITED 0, Some p -> go (p :: acc) (k + 1)
      | _ -> Error (Printf.sprintf "part %d of %s did not finish" (k + 1) w.Workload.name)
  in
  go [] 0

let report o (w : Workload.t) (r : Workload.result) =
  let correct = r.Workload.failed = 0 in
  Printf.printf "workload %s seed %d%s\n" w.Workload.name o.seed
    (if o.quick then " (quick twin check)" else if o.trace then " (traced)" else "");
  List.iter
    (fun (m : Workload.metric) ->
      assert (H.valid_name m.Workload.m_name);
      Printf.printf "%s %.6g %s\n" m.Workload.m_name m.Workload.value m.Workload.unit_)
    (r.Workload.metrics @ r.Workload.notes);
  Printf.printf "samples %d\n" r.Workload.samples;
  Printf.printf "ops_failed_frac %g\n"
    (float_of_int r.Workload.failed /. float_of_int (max 1 r.Workload.attempted));
  Printf.printf "trace_digest %s\n" r.Workload.digest;
  List.iter (fun e -> Printf.printf "FAILED %s\n" e) r.Workload.errors;
  let line =
    summary ~correct ~attempted:r.Workload.attempted ~failed:r.Workload.failed
      (metrics_json r.Workload.metrics)
  in
  Option.iter
    (fun path ->
      write_file path
        (H.Object
           [ ("workload", H.String w.Workload.name); ("seed", H.Int o.seed);
             ("trace", H.Bool o.trace); ("quick", H.Bool o.quick);
             ("samples", H.Int r.Workload.samples);
             ("trace_digest", H.String r.Workload.digest);
             ("errors", H.List (List.map (fun e -> H.String e) r.Workload.errors));
             ("result", line) ]))
    o.json;
  print_endline (H.to_json line);
  exit (if correct then 0 else 1)

let run_one o (w : Workload.t) =
  if o.quick then report o w (Workload.run_traced (Workload.shrink w) ~seed:o.seed ~seconds:0.)
  else if o.trace then report o w (Workload.run_traced w ~seed:o.seed ~seconds:o.seconds)
  else
    match parts o w with
    | Ok ps -> report o w (Workload.aggregate ps)
    | Error msg ->
      Printf.printf "FAILED %s\n" msg;
      print_endline (H.to_json (summary ~correct:false ~attempted:1 ~failed:1 (H.Object [])));
      exit 1

(* Each workload in a child process; its output is forwarded and its last
   line read back and folded into one summary. *)
let run_all o =
  let results =
    List.map
      (fun (w : Workload.t) ->
        let status, lines =
          spawn
            ([ "--workload"; w.Workload.name; "--seed"; string_of_int o.seed; "--seconds";
               Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
            @ if o.quick then [ "--quick" ] else [])
        in
        List.iter print_endline lines;
        (w.Workload.name, status, last_json lines))
      Workload.all
  in
  let int_field k v = match H.member k v with Some (H.Int n) -> n | _ -> 0 in
  let correct =
    List.for_all
      (fun (_, status, parsed) ->
        status = Unix.WEXITED 0
        && match parsed with Some v -> H.member "correct" v = Some (H.Bool true) | None -> false)
      results
  in
  let total k =
    List.fold_left
      (fun acc (_, _, p) -> acc + match p with Some v -> int_field k v | None -> 0)
      0 results
  in
  let metrics =
    List.concat_map
      (fun (name, _, p) ->
        match Option.bind p (H.member "metrics") with
        | Some (H.Object kvs) -> List.map (fun (k, v) -> (name ^ "." ^ k, v)) kvs
        | _ -> [])
      results
  in
  let line =
    summary ~correct ~attempted:(total "attempted") ~failed:(total "failed")
      (H.Object metrics)
  in
  Option.iter (fun path -> write_file path line) o.json;
  print_endline (H.to_json line);
  exit (if correct then 0 else 1)

let () =
  let o = parse Sys.argv in
  match o.workload with
  | None -> run_all o
  | Some name -> (
    match Workload.find name with
    | Some w when o.part ->
      print_endline (H.to_json (Workload.part_to_json (Workload.run_part w ~seed:o.seed)))
    | Some w -> run_one o w
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all));
      exit 2)
