(* Measurement helpers shared by the benchmark and its unit tests: the
   monotonic clock, order statistics, metric-name validation and a small
   JSON value type with a writer and a reader. *)

(* --- clock --------------------------------------------------------------- *)

(* Wall time on the monotonic clock, in nanoseconds.  Sys.time would be
   process CPU time, which hides waiting and double-counts Domains. *)
let now_ns () = Monotonic_clock.now ()

let elapsed_ms t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let elapsed_s t0 = elapsed_ms t0 /. 1e3

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (p in [0, 100]). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

(* Samples strictly beyond the p-th percentile of n (the epsilon absorbs
   rounding in p * n / 100, e.g. 99.9% of 10000). *)
let beyond ~p n = n - int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* A tail percentile is reported only with at least this many samples
   beyond it; fewer and one outlier decides it. *)
let min_tail = 10

let tail_ok ~p n = beyond ~p n >= min_tail

(* The highest of the usual tail percentiles that the sample count
   supports, if any. *)
let highest_tail_percentile n =
  List.find_opt (fun p -> tail_ok ~p n) [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) gives them
   (the default "exclusive" method): the spread of a metric over a set of
   runs is its IQR as a share of its median, and the bounds in
   BENCHMARK.json are judged against that. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Harness.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* --- metric names -------------------------------------------------------- *)

let name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

(* [A-Za-z0-9_.-], at most 64 characters, starting with a letter or digit. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)
  && String.for_all name_char s

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Object of (string * json) list

let escape_into b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* Floats keep every digit (%.17g round-trips); JSON has no NaN or
   infinity, so those are refused rather than written unparseable. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Harness.to_json: non-finite number";
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let to_json v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Object kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          go (String k);
          Buffer.add_char b ':';
          go x)
        kvs;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Parse_error of string

(* Reads what [to_json] writes (and ordinary JSON besides): the parent
   process reads each workload child's result line back with it. *)
let of_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "bad escape");
        loop ()
      | c ->
        Buffer.add_char b c;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number"
    else match int_of_string_opt lit with Some i -> Int i | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Object []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Object (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elements (v :: acc)
          | ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member k = function
  | Object kvs -> List.assoc_opt k kvs
  | _ -> None
