(* Data-parallel map over OCaml 5 Domains. *)

let map ?(domains = Domain.recommended_domain_count ()) f a =
  let n = Array.length a in
  let domains = min domains n in
  if domains <= 1 then Array.map f a
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 and failed = Atomic.make false in
    (* claims happen in index order, so when index i fails every lower
       index has been claimed and runs to completion *)
    let rec work () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f a.(i) with
           | y -> out.(i) <- Some (Ok y)
           | exception e ->
             out.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()));
             Atomic.set failed true);
          work ()
        end
      end
    in
    let helpers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* only indices above a failure go unclaimed *))
      out
  end
