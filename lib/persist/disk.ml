(* A simulated disk: a flat namespace of byte blobs with one-shot injected
   faults.

   The point is not to model a filesystem but to model the failure envelope
   a relying party's persistence layer must survive: a write that lands
   half-done (torn), a write whose tail never reaches the platter (partial
   flush), silent media corruption (bit flip), and a crash between the data
   rename and the generation-marker rename (dropped rename, which surfaces
   as a stale snapshot).  Faults are armed explicitly and fire exactly once,
   on the next matching operation, so experiments stay deterministic. *)

type fault =
  | Torn_write
  | Partial_flush
  | Bit_flip of int
  | Drop_rename

let fault_to_string = function
  | Torn_write -> "torn-write"
  | Partial_flush -> "partial-flush"
  | Bit_flip i -> Printf.sprintf "bit-flip:%d" i
  | Drop_rename -> "drop-rename"

type t = {
  files : (string, string) Hashtbl.t;
  mutable armed : fault option;
  mutable fired : fault list; (* most recent first *)
  mutable writes : int;
  mutable bytes_written : int;
}

let create () =
  { files = Hashtbl.create 7; armed = None; fired = []; writes = 0;
    bytes_written = 0 }

let inject t fault =
  (match t.armed with
  | Some f ->
    invalid_arg
      (Printf.sprintf "Disk.inject: fault %s already armed" (fault_to_string f))
  | None -> ());
  t.armed <- Some fault

let armed t = t.armed
let fired t = t.fired

let corrupt_write fault data =
  let n = String.length data in
  match fault with
  | Torn_write -> String.sub data 0 (n / 2)
  | Partial_flush ->
    (* full length reached the file, but the tail never hit stable storage *)
    String.sub data 0 (n / 2) ^ String.make (n - (n / 2)) '\000'
  | Bit_flip i ->
    if n = 0 then data
    else begin
      let b = Bytes.of_string data in
      let bit = ((i mod (n * 8)) + (n * 8)) mod (n * 8) in
      let byte = bit / 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      Bytes.to_string b
    end
  | Drop_rename -> data

let write t ~name data =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + String.length data;
  let data =
    match t.armed with
    | Some (Torn_write | Partial_flush | Bit_flip _) as f ->
      let fault = Option.get f in
      t.armed <- None;
      t.fired <- fault :: t.fired;
      corrupt_write fault data
    | Some Drop_rename | None -> data
  in
  Hashtbl.replace t.files name data

let read t ~name = Hashtbl.find_opt t.files name

let rename t ~src ~dst =
  match t.armed with
  | Some Drop_rename ->
    (* the crash window: the new bytes exist under the temporary name but the
       atomic swap never happened *)
    t.armed <- None;
    t.fired <- Drop_rename :: t.fired
  | _ -> (
    match Hashtbl.find_opt t.files src with
    | None -> invalid_arg (Printf.sprintf "Disk.rename: no such file %S" src)
    | Some data ->
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst data)

let delete t ~name = Hashtbl.remove t.files name
let exists t ~name = Hashtbl.mem t.files name

let files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare

let size t ~name =
  match Hashtbl.find_opt t.files name with None -> 0 | Some d -> String.length d

let writes t = t.writes
let bytes_written t = t.bytes_written
