(* The JSON values the experiments export, and their one writer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Object of (string * t) list

let int i = Int i

let string s = String s

let list f xs = List (List.map f xs)

let option f = function Some x -> f x | None -> Null

let escape_into b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 1024 in
  let sep i = if i > 0 then Buffer.add_char b ',' in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Fixed (decimals, x) ->
      if Float.is_finite x then Printf.bprintf b "%.*f" decimals x
      else Buffer.add_string b "null"
    | String s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          sep i;
          go x)
        xs;
      Buffer.add_char b ']'
    | Object members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          sep i;
          go (String k);
          Buffer.add_char b ':';
          go x)
        members;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b
