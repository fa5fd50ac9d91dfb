(* A publication point: the rsync-served directory where one authority
   publishes every object it has issued (RFC 6481).

   The paper's Section 3 design decisions live here: objects are delivered
   out of band from a directory *controlled by their issuer*, and an issuer
   may silently delete or overwrite anything in its own directory.

   Each point maintains a content fingerprint — SHA-256 over the sorted
   (filename, bytes) listing — recomputed lazily and invalidated on every
   mutation.  Relying parties compare fingerprints to decide whether a
   point changed since their last sync, which is what makes a warm tick
   skip re-validation of the unchanged bulk of the universe. *)

type t = {
  uri : string;                    (* e.g. "rsync://rpki.sprint.net/repo" *)
  addr : Rpki_ip.Addr.V4.t;        (* where the repository host lives *)
  host_asn : int;                  (* the AS hosting the repository *)
  mutable files : (string * string) list; (* filename -> DER bytes, sorted *)
  mutable fp : string option;      (* cached listing fingerprint *)
}

let create ~uri ~addr ~host_asn = { uri; addr; host_asn; files = []; fp = None }

let uri t = t.uri
let addr t = t.addr
let host_asn t = t.host_asn

let sort files = List.sort (fun (a, _) (b, _) -> String.compare a b) files

(* Publish (or overwrite) one file. *)
let put t ~filename bytes =
  t.files <- sort ((filename, bytes) :: List.remove_assoc filename t.files);
  t.fp <- None

let delete t ~filename =
  t.files <- List.remove_assoc filename t.files;
  t.fp <- None

let get t ~filename = List.assoc_opt filename t.files

let files t = t.files
let filenames t = List.map fst t.files
let mem t ~filename = List.mem_assoc filename t.files

(* A point-in-time copy, as an rsync client would obtain. *)
let snapshot t = t.files

let replace_files t files =
  t.files <- sort files;
  t.fp <- None

(* SHA-256 over a length-prefixed encoding of the sorted listing, so that
   file boundaries cannot alias ("ab","c" vs "a","bc"). *)
let fingerprint_of_listing files =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, bytes) ->
      Buffer.add_string buf (string_of_int (String.length name));
      Buffer.add_char buf ':';
      Buffer.add_string buf name;
      Buffer.add_string buf (string_of_int (String.length bytes));
      Buffer.add_char buf ':';
      Buffer.add_string buf bytes)
    (sort files);
  Rpki_crypto.Sha256.digest (Buffer.contents buf)

let fingerprint t =
  match t.fp with
  | Some fp -> fp
  | None ->
    let fp = fingerprint_of_listing t.files in
    t.fp <- Some fp;
    fp

(* Flip one byte of a stored file: the transient corruption of Section 6. *)
let corrupt t ~filename ~byte_index =
  match get t ~filename with
  | None -> false
  | Some bytes ->
    let i = byte_index mod max 1 (String.length bytes) in
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    put t ~filename (Bytes.to_string b);
    true
