(* Unit tests for the experiments' JSON writer. *)

let str = Alcotest.string

let test_escaping () =
  let s x = Json.to_string (Json.String x) in
  Alcotest.check str "quote" {|"a\"b"|} (s "a\"b");
  Alcotest.check str "backslash" {|"a\\b"|} (s "a\\b");
  Alcotest.check str "control bytes" {|"\u0001\u000a\u001f"|} (s "\001\n\031");
  Alcotest.check str "DEL and space as they are" "\"\127 \"" (s "\127 ");
  Alcotest.check str "raw UTF-8 bytes pass through" "\"caf\xc3\xa9 \xe2\x80\x94\""
    (s "caf\xc3\xa9 \xe2\x80\x94");
  Alcotest.check str "member names are escaped too" {|{"k\"":null}|}
    (Json.to_string (Json.Object [ ("k\"", Json.Null) ]))

let test_fixed () =
  let values = [ 0.; -0.; 1.5; 2.675; -0.125; 0.0005; 1234.5678; 1e-7; 9.995; 3e9 ] in
  List.iter
    (fun n ->
      List.iter
        (fun x ->
          Alcotest.check str
            (Printf.sprintf "%%.%df of %h" n x)
            (Printf.sprintf "%.*f" n x)
            (Json.to_string (Json.Fixed (n, x))))
        values)
    [ 0; 1; 2; 3; 4 ];
  (* the formats the experiments use, spelt out *)
  Alcotest.check str "%.1f" (Printf.sprintf "%.1f" 0.25) (Json.to_string (Json.Fixed (1, 0.25)));
  Alcotest.check str "%.2f" (Printf.sprintf "%.2f" 0.3) (Json.to_string (Json.Fixed (2, 0.3)));
  Alcotest.check str "%.4f" (Printf.sprintf "%.4f" (2. /. 3.))
    (Json.to_string (Json.Fixed (4, 2. /. 3.)))

let test_non_finite () =
  List.iter
    (fun x ->
      Alcotest.check str (Printf.sprintf "%h" x) "null" (Json.to_string (Json.Fixed (1, x))))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_structure () =
  let v =
    Json.Object
      [ ("z", Json.Int 1); ("a", Json.Bool true); ("m", Json.list Json.int [ 2; 3 ]);
        ("n", Json.option Json.int None); ("s", Json.option Json.int (Some 4));
        ("e", Json.Object []); ("l", Json.List []); ("f", Json.Bool false); ("neg", Json.Int (-5)) ]
  in
  Alcotest.check str "members in the order given, no whitespace"
    {|{"z":1,"a":true,"m":[2,3],"n":null,"s":4,"e":{},"l":[],"f":false,"neg":-5}|}
    (Json.to_string v)

let () =
  Alcotest.run "bench-json"
    [ ( "writer",
        [ Alcotest.test_case "string escaping" `Quick test_escaping;
          Alcotest.test_case "fixed decimals match Printf" `Quick test_fixed;
          Alcotest.test_case "non-finite numbers are null" `Quick test_non_finite;
          Alcotest.test_case "member order and layout" `Quick test_structure ] ) ]
