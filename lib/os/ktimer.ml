open Engine

type t = {
  sim : Sim.t;
  thunk : unit -> unit;
  mutable handle : Sim.handle option;
}

let after sim span thunk =
  let t = { sim; thunk; handle = None } in
  let h =
    Sim.schedule t.sim ~after:span (fun () ->
        t.handle <- None;
        t.thunk ())
  in
  t.handle <- Some h;
  t

let cancel t =
  match t.handle with
  | Some h ->
      Sim.cancel h;
      t.handle <- None
  | None -> ()
