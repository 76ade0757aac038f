type 'a state = Empty of ('a -> unit) list | Filled of 'a
type 'a t = { id : int; mutable state : 'a state }

let next_id = ref 0

let create () =
  let id = !next_id in
  incr next_id;
  { id; state = Empty [] }

let is_filled t =
  match t.state with Filled _ -> true | Empty _ -> false

let fill t v =
  (* Emitted before the single-fill check so the invariant monitor sees the
     offending second fill as well as the raise. *)
  if !Probe.on then Probe.emit (Probe.Ivar_fill { id = t.id });
  match t.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      t.state <- Filled v;
      (* Wake in registration order. *)
      List.iter (fun k -> k v) (List.rev waiters)

let peek t = match t.state with Filled v -> Some v | Empty _ -> None

let on_fill t f =
  match t.state with
  | Filled v -> f v
  | Empty waiters -> t.state <- Empty (f :: waiters)

let read t =
  match t.state with
  | Filled v -> v
  | Empty _ -> Process.await (fun resume -> on_fill t resume)
