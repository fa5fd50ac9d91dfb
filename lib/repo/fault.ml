(* Third-party fault injection against publication points.

   These are *not* authority operations: they model filesystem corruption,
   server failures and expiry (Side Effect 6's "information can be missing
   for a variety of reasons"), so they do not update the manifest — leaving
   the inconsistencies a manifest is designed to expose. *)

type applied = {
  undo : unit -> unit; (* repair the fault (restore the previous bytes) *)
}

let delete_object (pp : Pub_point.t) ~filename =
  match Pub_point.get pp ~filename with
  | None -> None
  | Some original ->
    Pub_point.delete pp ~filename;
    Some { undo = (fun () -> Pub_point.put pp ~filename original) }

let corrupt_object (pp : Pub_point.t) ~filename () =
  match Pub_point.get pp ~filename with
  | None -> None
  | Some original ->
    if not (Pub_point.corrupt pp ~filename ~byte_index:7) then None
    else
      Some { undo = (fun () -> Pub_point.put pp ~filename original) }

(* Replace every file with garbage: total repository loss. *)
let wipe (pp : Pub_point.t) =
  let originals = Pub_point.files pp in
  List.iter (fun (filename, _) -> Pub_point.delete pp ~filename) originals;
  { undo = (fun () -> List.iter (fun (filename, bytes) -> Pub_point.put pp ~filename bytes) originals) }

let repair (a : applied) = a.undo ()
