(* Generation-numbered snapshot store: a checkpointed base plus an
   append-only chain of sealed segments, all under atomic write-then-rename.

   Layout on the simulated disk, for a store named [v]:
     v.snap       — the base snapshot (Codec container, generation g0)
     v.seg.<g>    — sealed segment g, one per [append], g in g0+1 .. marker
     v.gen        — the generation marker, written *after* every data rename

   [save] writes a full base snapshot (and retires any segments); [append]
   seals a new segment holding only the records the caller hands it — the
   O(delta) path a long-running relying party saves through.  [append]
   needs a base: it never writes one itself, since a delta saved as a base
   could not be restored.  Both write the data file through a temporary
   name and rename into place, data first, marker second.  A crash
   (dropped rename) between the two leaves the marker ahead of the chain:
   [load]/[load_chain] report that as [Stale] rather than handing back an
   older generation as if it were current.

   [save] and [append] read the sealed file back and report whether it
   holds the bytes they wrote: a torn, partially flushed or bit-flipped
   write, or a dropped data rename, leaves a file that does not, and a
   caller that kept appending behind it would build on a chain no restore
   accepts.

   [compact] folds base + segments back into one base snapshot.  It stages
   the folded container under a side name, reads it back (so an armed
   one-shot write fault is caught before anything is replaced), renames it
   over the base and re-reads to confirm the swap (so a dropped rename is
   caught too), and only then deletes the segments.  On any detected fault
   the store is left exactly as it was — still segmented, still loadable. *)

type t = { disk : Disk.t; name : string }

let snap_file t = t.name ^ ".snap"
let gen_file t = t.name ^ ".gen"
let seg_file t g = Printf.sprintf "%s.seg.%d" t.name g
let seg_prefix t = t.name ^ ".seg."
let staging_file t = t.name ^ ".cmp"

let create disk ~name = { disk; name }
let same a b = a.disk == b.disk && String.equal a.name b.name

let marker t =
  match Disk.read t.disk ~name:(gen_file t) with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

let generation t = Option.value (marker t) ~default:0

type load_error =
  | No_snapshot
  | Corrupt of string
  | Stale of { snap_generation : int; marker : int }

let load_error_to_string = function
  | No_snapshot -> "no snapshot"
  | Corrupt why -> Printf.sprintf "corrupt snapshot: %s" why
  | Stale { snap_generation; marker } ->
    Printf.sprintf "stale snapshot: generation %d but marker says %d"
      snap_generation marker

type sealed = { generation : int; intact : bool }

(* Write [data] under [name] through a temporary, then advance the marker —
   the shared tail of [save] and [append] — and read [name] back. *)
let seal t ~name ~generation data =
  let tmp = name ^ ".tmp" in
  Disk.write t.disk ~name:tmp data;
  Disk.rename t.disk ~src:tmp ~dst:name;
  let gtmp = gen_file t ^ ".tmp" in
  Disk.write t.disk ~name:gtmp (string_of_int generation);
  Disk.rename t.disk ~src:gtmp ~dst:(gen_file t);
  let intact =
    match Disk.read t.disk ~name with Some b -> String.equal b data | None -> false
  in
  { generation; intact }

let delete_segments t =
  List.iter
    (fun name ->
      let p = seg_prefix t in
      if String.length name > String.length p
         && String.equal (String.sub name 0 (String.length p)) p
      then Disk.delete t.disk ~name)
    (Disk.files t.disk)

let save t ~now records =
  let generation = generation t + 1 in
  let snap =
    Codec.encode { Codec.s_generation = generation; s_saved_at = now;
                   s_records = records }
  in
  let sealed = seal t ~name:(snap_file t) ~generation snap in
  delete_segments t;
  sealed

(* A segment only means something on top of a base: sealing the caller's
   delta records as a base would leave a chain no restore accepts. *)
let append t ~now records =
  if not (Disk.exists t.disk ~name:(snap_file t)) then
    invalid_arg "Store.append: no base snapshot to append to";
  let generation = generation t + 1 in
  let seg =
    Codec.encode { Codec.s_generation = generation; s_saved_at = now;
                   s_records = records }
  in
  seal t ~name:(seg_file t generation) ~generation seg

(* The whole chain, base first.  The marker names the newest sealed
   generation; every generation between the base's and the marker's must be
   present and internally consistent, or the chain is refused. *)
let load_chain t =
  match Disk.read t.disk ~name:(snap_file t) with
  | None -> Error No_snapshot
  | Some bytes -> (
    match Codec.decode bytes with
    | Error e -> Error (Corrupt (Codec.error_to_string e))
    | Ok base ->
      let g0 = base.Codec.s_generation in
      let m = Option.value (marker t) ~default:g0 in
      if m <= g0 then Ok [ base ]
        (* marker at or behind the base: a crash between the base rename and
           the marker rename — the base is newer than the marker and wins *)
      else begin
        let rec segs acc g =
          if g > m then Ok (List.rev acc)
          else
            match Disk.read t.disk ~name:(seg_file t g) with
            | None -> Error (Stale { snap_generation = g - 1; marker = m })
            | Some bytes -> (
              match Codec.decode bytes with
              | Error e ->
                Error (Corrupt (Printf.sprintf "segment %d: %s" g (Codec.error_to_string e)))
              | Ok seg ->
                if seg.Codec.s_generation <> g then
                  Error
                    (Corrupt
                       (Printf.sprintf "segment %d carries generation %d" g
                          seg.Codec.s_generation))
                else segs (seg :: acc) (g + 1))
        in
        match segs [] (g0 + 1) with
        | Ok rest -> Ok (base :: rest)
        | Error e -> Error e
      end)

let load t =
  match load_chain t with
  | Ok (base :: _) -> Ok base
  | Ok [] -> Error No_snapshot (* unreachable: a chain always has a base *)
  | Error e -> Error e

let segment_count t =
  match load_chain t with Ok (_ :: segs) -> List.length segs | _ -> 0

let compact t ~now ~fold =
  match load_chain t with
  | Error e -> Error (load_error_to_string e)
  | Ok [ _ ] -> Ok (generation t) (* nothing sealed beyond the base: no-op *)
  | Ok [] -> Error "empty chain"
  | Ok containers ->
    let last = List.nth containers (List.length containers - 1) in
    let records = fold containers in
    let gen = last.Codec.s_generation in
    (* compaction re-expresses the same generation: the marker is untouched *)
    let folded =
      Codec.encode { Codec.s_generation = gen; s_saved_at = now; s_records = records }
    in
    let staging = staging_file t in
    Disk.write t.disk ~name:staging folded;
    (match Disk.read t.disk ~name:staging with
    | Some b when String.equal b folded -> (
      Disk.rename t.disk ~src:staging ~dst:(snap_file t);
      match Disk.read t.disk ~name:(snap_file t) with
      | Some b' when String.equal b' folded ->
        delete_segments t;
        Ok gen
      | _ ->
        (* the rename was dropped: the old base and every segment are still
           in place — clean the staging copy and report *)
        Disk.delete t.disk ~name:staging;
        Error "compaction rename lost; store left segmented")
    | _ ->
      Disk.delete t.disk ~name:staging;
      Error "compaction staging write corrupted; store left segmented")

let snapshot_bytes t = Disk.size t.disk ~name:(snap_file t)

let chain_bytes t =
  let p = seg_prefix t in
  List.fold_left
    (fun acc name ->
      if String.equal name (snap_file t)
         || (String.length name > String.length p
             && String.equal (String.sub name 0 (String.length p)) p)
      then acc + Disk.size t.disk ~name
      else acc)
    0 (Disk.files t.disk)

let wipe t =
  Disk.delete t.disk ~name:(snap_file t);
  Disk.delete t.disk ~name:(gen_file t);
  Disk.delete t.disk ~name:(snap_file t ^ ".tmp");
  Disk.delete t.disk ~name:(gen_file t ^ ".tmp");
  Disk.delete t.disk ~name:(staging_file t);
  delete_segments t (* the name prefix also covers segment temporaries *)
