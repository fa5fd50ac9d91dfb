(* Unit tests for the benchmark's measurement helpers. *)

module H = Harness

let close = Alcotest.float 1e-9

let test_quartiles () =
  (* reference values from Python: statistics.quantiles(xs, n=4) *)
  let q xs = H.quartiles xs in
  let check name xs (a, b, c) =
    let x, y, z = q xs in
    Alcotest.check close (name ^ " q1") a x;
    Alcotest.check close (name ^ " q2") b y;
    Alcotest.check close (name ^ " q3") c z
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "unsorted" [ 3.5; 1.25; 9.0; 4.0; 2.0 ] (1.625, 3.5, 6.5);
  check "two" [ 2.0; 1.0 ] (0.75, 1.5, 2.25);
  Alcotest.check close "iqr" 5.5 (H.iqr (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check_raises "one sample" (Invalid_argument "Harness.quartiles: need at least two samples")
    (fun () -> ignore (H.quartiles [ 1. ]))

let test_percentile () =
  let xs = List.init 101 float_of_int in
  Alcotest.check close "median" 50. (H.median xs);
  Alcotest.check close "p90" 90. (H.percentile 90. xs);
  Alcotest.check close "interpolated" 2.5 (H.percentile 50. [ 1.; 2.; 3.; 4. ]);
  Alcotest.check close "single" 7. (H.percentile 90. [ 7. ])

let test_tail_rule () =
  Alcotest.(check int) "beyond p90 of 100" 10 (H.beyond ~p:90. 100);
  Alcotest.(check bool) "p90 needs 100 samples" true (H.tail_ok ~p:90. 100);
  Alcotest.(check bool) "99 are too few" false (H.tail_ok ~p:90. 99);
  Alcotest.(check bool) "p99 needs 1000" true (H.tail_ok ~p:99. 1000);
  Alcotest.(check bool) "999 are too few for p99" false (H.tail_ok ~p:99. 999);
  let highest n = H.highest_tail_percentile n in
  Alcotest.(check (option (float 0.))) "100 samples" (Some 90.) (highest 100);
  Alcotest.(check (option (float 0.))) "300 samples" (Some 95.) (highest 300);
  Alcotest.(check (option (float 0.))) "10000 samples" (Some 99.9) (highest 10000);
  Alcotest.(check (option (float 0.))) "too few" None (highest 19)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (H.valid_name n))
    [ "setup_s"; "tick_ms_p90"; "sync.valcache_hit"; "roa-churn"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (H.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "tick%"; "é"; String.make 65 'a' ]

let test_json_roundtrip () =
  let v =
    H.Object
      [ ("correct", H.Bool true); ("attempted", H.Int 1000); ("failed", H.Int 0);
        ("none", H.Null);
        ("metrics",
         H.Object
           [ ("latency_ms", H.Object [ ("value", H.Float 1.2034); ("unit", H.String "ms") ]);
             ("tiny", H.Float 1e-12); ("neg", H.Float (-3.)); ("third", H.Float (1. /. 3.)) ]);
        ("text", H.String "quote \" backslash \\ newline \n tab \t ctrl \001");
        ("list", H.List [ H.Int (-1); H.List []; H.Object [] ]) ]
  in
  let s = H.to_json v in
  Alcotest.(check bool) "round trip" true (H.of_json s = v);
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  Alcotest.(check string) "contract shape" "{\"correct\":true,\"attempted\":1,\"failed\":0}"
    (H.to_json
       (H.Object [ ("correct", H.Bool true); ("attempted", H.Int 1); ("failed", H.Int 0) ]));
  Alcotest.(check bool) "whitespace" true
    (H.of_json " { \"a\" : [ 1 , 2.5 ] } " = H.Object [ ("a", H.List [ H.Int 1; H.Float 2.5 ]) ]);
  Alcotest.check_raises "nan refused" (Invalid_argument "Harness.to_json: non-finite number")
    (fun () -> ignore (H.to_json (H.Float Float.nan)));
  List.iter
    (fun bad ->
      match H.of_json bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception H.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"open"; "1 2" ]

let () =
  Alcotest.run "benchmark-harness"
    [ ("stats",
       [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
         Alcotest.test_case "percentile" `Quick test_percentile;
         Alcotest.test_case "tail percentile rule" `Quick test_tail_rule ]);
      ("names", [ Alcotest.test_case "metric-name charset" `Quick test_names ]);
      ("json", [ Alcotest.test_case "writer round trip" `Quick test_json_roundtrip ]) ]
