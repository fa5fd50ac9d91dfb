(* The sum of object kinds stored at a publication point, with the filename
   conventions the repository layer uses (.cer / .roa / .crl / .mft, as in
   RFC 6481). *)

type t =
  | Cert of Cert.t
  | Roa of Roa.t
  | Crl of Crl.t
  | Manifest of Manifest.t

let kind_of_filename name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i -> (
    match String.sub name (i + 1) (String.length name - i - 1) with
    | "cer" -> Some `Cert
    | "roa" -> Some `Roa
    | "crl" -> Some `Crl
    | "mft" -> Some `Manifest
    | _ -> None)

let decode ~filename bytes =
  match kind_of_filename filename with
  | None -> Error (Printf.sprintf "unknown object kind for %S" filename)
  | Some `Cert -> Result.map (fun c -> Cert c) (Cert.decode bytes)
  | Some `Roa -> Result.map (fun r -> Roa r) (Roa.decode bytes)
  | Some `Crl -> Result.map (fun c -> Crl c) (Crl.decode bytes)
  | Some `Manifest -> Result.map (fun m -> Manifest m) (Manifest.decode bytes)
