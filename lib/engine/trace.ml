type span = { label : string; start : Time.t; finish : Time.t }

type t = {
  sim : Sim.t;
  mutable enabled : bool;
  mutable rev_spans : span list;
}

let create sim = { sim; enabled = true; rev_spans = [] }
let set_enabled t e = t.enabled <- e

let record t label start finish =
  if t.enabled then t.rev_spans <- { label; start; finish } :: t.rev_spans

let run t label f =
  let start = Sim.now t.sim in
  let finish v =
    record t label start (Sim.now t.sim);
    v
  in
  match f () with v -> finish v | exception exn -> ignore (finish ()); raise exn

let mark t label =
  let now = Sim.now t.sim in
  record t label now now

let spans t =
  List.sort (fun a b -> compare (a.start, a.finish) (b.start, b.finish))
    (List.rev t.rev_spans)

let duration t label =
  let total =
    List.fold_left
      (fun acc s ->
        if String.equal s.label label then acc + Time.diff s.finish s.start
        else acc)
      0 (spans t)
  in
  let seen = List.exists (fun s -> String.equal s.label label) (spans t) in
  if seen then Some total else None

(* Merge-sweep over start-sorted intervals: extend the open interval while
   the next one overlaps (or abuts), otherwise close it out. *)
let merged_length intervals =
  let sorted = List.sort compare intervals in
  let total, open_iv =
    List.fold_left
      (fun (total, open_iv) (s, f) ->
        match open_iv with
        | None -> (total, Some (s, f))
        | Some (os, of_) ->
            if s <= of_ then (total, Some (os, max of_ f))
            else (total + Time.diff of_ os, Some (s, f)))
      (0, None) sorted
  in
  match open_iv with
  | None -> total
  | Some (os, of_) -> total + Time.diff of_ os

let disjoint_duration t label =
  let intervals =
    List.filter_map
      (fun s ->
        if String.equal s.label label then Some (s.start, s.finish) else None)
      (spans t)
  in
  match intervals with [] -> None | _ -> Some (merged_length intervals)
