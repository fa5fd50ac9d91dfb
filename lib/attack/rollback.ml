(* The rollback adversary: replaying a genuinely old repository state to a
   relying party that restarted.

   This is *not* equivocation.  Split_view forges a second present; Rollback
   serves an authentic past — a byte-for-byte capture of the authority's
   publication point from before a revocation, old manifest (with its old,
   lower manifest number), old signatures, old everything.  Nothing about
   the served bytes is invalid; they were the truth once, and may even still
   be within their validity windows.

   That is why the fresh-start oracle matters (the gap this PR closes): a
   victim whose transparency log died with its process has no baseline —
   to it the replayed past is simply the current state of the world, and
   content cross-checks with peers agree: honest vantages recorded exactly
   these bytes under exactly this manifest number back when they were
   current.  Only *history* contradicts the replay: a persisted own log
   whose latest manifest number for the point is higher (a local
   Serial_regression at the first sync), or peers' persisted memory of the
   victim's log / the point's serial line (a gossip Rollback alarm).

   Like Split_view, the replay is installed as a per-URI view on the
   victim's transport: the repository (or a coerced parent, or an on-path
   attacker for unauthenticated rsync) decides per-client what to serve. *)

open Rpki_repo

type t = {
  authority : Authority.t;
  mutable captured : (string * string) list option; (* the frozen past *)
  mutable captured_at : int;
}

let plan ~authority = { authority; captured = None; captured_at = 0 }

let uri t = Pub_point.uri (Authority.pub t.authority)

(* Freeze the authority's current publication-point state verbatim.  Called
   while the state is still honest (pre-revocation): this is the past the
   adversary will later replay. *)
let capture t ~now =
  t.captured <- Some (Pub_point.snapshot (Authority.pub t.authority));
  t.captured_at <- now

(* Serve the frozen capture to the victim.  Unlike Split_view's listing the
   view does not track the honest state — replaying the past means serving
   the same stale bytes forever. *)
let apply t transport =
  match t.captured with
  | None -> invalid_arg "Rollback.apply: nothing captured (call capture first)"
  | Some files -> Transport.set_view transport ~uri:(uri t) (fun () -> files)

let describe t =
  match t.captured with
  | None -> Printf.sprintf "rollback of %s: nothing captured yet" (uri t)
  | Some files ->
    Printf.sprintf
      "rollback of %s: victim is served the authentic %d-file state captured @t%d"
      (uri t) (List.length files) t.captured_at
