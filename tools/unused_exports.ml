(* Lists every top-level value of a [lib/] interface that no compilation
   unit in the build references, and exits 1 if there is one.

   Usage: unused_exports.exe ROOT, where ROOT is a build context such as
   [_build/default] after [dune build @check].

   A [Texp_ident] carries the declaration of the value it names.  A use
   from another unit resolves through the [.cmi], so its declaration is the
   [val] in the [.mli]; a module's use of its own value resolves to the
   [let] in its [.ml] and does not count. *)

(* An entry that vanished between [readdir] and its stat (an [ar] temp
   file beside a library archive being rebuilt) is skipped. *)
let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      match Sys.is_directory path with
      | true -> walk path acc
      | false -> path :: acc
      | exception Sys_error _ -> acc)
    acc (Sys.readdir dir)

let key (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

let used = Hashtbl.create 4096

let collect_uses file =
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> Hashtbl.replace used (key vd.val_loc) ()
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match (Cmt_format.read_cmt file).cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

let interfaces = ref 0

let unused_in file =
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots, cmt.cmt_sourcefile with
  | Interface sg, Some src when String.starts_with ~prefix:"lib/" src ->
    incr interfaces;
    List.filter_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd when not (Hashtbl.mem used (key vd.val_loc)) ->
          Some (Printf.sprintf "%s:%d: %s.%s" src vd.val_loc.loc_start.pos_lnum
                  (String.capitalize_ascii
                     (Filename.remove_extension (Filename.basename src)))
                  vd.val_name.txt)
        | _ -> None)
      sg.sig_items
  | _ -> []

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files = walk root [] in
  List.iter
    (fun f -> if Filename.check_suffix f ".cmt" then collect_uses f)
    files;
  let unused =
    List.concat_map
      (fun f -> if Filename.check_suffix f ".cmti" then unused_in f else [])
      files
    |> List.sort_uniq compare
  in
  (* no interface at all means no build under [root], not a clean one *)
  if !interfaces = 0 then begin
    prerr_endline ("no lib/ interface found under " ^ root ^ "; build @check first");
    exit 2
  end;
  List.iter print_endline unused;
  if unused <> [] then begin
    Printf.printf "%d exported value(s) in lib/ that nothing uses\n"
      (List.length unused);
    exit 1
  end
