(** The sum of object kinds stored at a publication point, with RFC 6481
    filename conventions (.cer / .roa / .crl / .mft). *)

type t =
  | Cert of Cert.t
  | Roa of Roa.t
  | Crl of Crl.t
  | Manifest of Manifest.t

val decode : filename:string -> string -> (t, string) result
(** Dispatch on the filename extension, then parse. *)
