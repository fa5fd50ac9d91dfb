(** Signed fork/rollback evidence bundles: portable DER containers for the
    two-sided cryptographic evidence a {!Gossip.alarm} carries.

    A bundle embeds both attested sides (observations, leaf indexes, signed
    tree heads, inclusion proofs) and the vantage public keys it claims the
    heads verify under.  {!verify} answers the purely cryptographic
    question — under the embedded keys, is this genuine evidence? — by
    re-running {!Gossip.verify_fork} from scratch; whether to {e trust}
    those keys is the importer's decision (compare fingerprints
    out-of-band). *)

open Rpki_crypto

val magic : string

val export :
  key_of:(string -> Rsa.public option) -> Gossip.alarm -> (string, string) result
(** Encode an alarm as a bundle, embedding each involved vantage's tree-head
    key from [key_of].  [Error] for non-exportable alarms or missing keys. *)

val import : string -> (Gossip.alarm * (string * Rsa.public) list, string) result
(** Decode a bundle into the alarm and its embedded keys.  Decoding alone
    proves nothing — call {!verify}. *)

val verify : string -> (Gossip.alarm, string) result
(** Decode and re-verify from scratch under the embedded keys.  [Ok] is
    cryptographic proof of a split view or served rollback, needing no
    trust in the exporter. *)
