type priority = [ `High | `Low ]

type t = {
  sim : Sim.t;
  name : string;
  mutable busy : bool;
  high : (unit -> unit) Queue.t;
  low : (unit -> unit) Queue.t;
  mutable busy_time : Time.span;
  mutable grants : int;
}

let create sim ~name =
  {
    sim;
    name;
    busy = false;
    high = Queue.create ();
    low = Queue.create ();
    busy_time = 0;
    grants = 0;
  }

let is_busy t = t.busy

let release t =
  match Queue.take_opt t.high with
  | Some next -> next ()
  | None -> (
      match Queue.take_opt t.low with
      | Some next -> next ()
      | None -> t.busy <- false)

let acquire ?(priority = `Low) t =
  if t.busy then
    Process.await (fun resume ->
        let q = match priority with `High -> t.high | `Low -> t.low in
        Queue.add resume q)
  else t.busy <- true

(* Positive-duration grants double as occupancy spans for the
   observability layer; zero-length grants (scheduling points) would only
   add noise. *)
let probe_span t started =
  let finish = Sim.now t.sim in
  if finish > started && !Probe.on then
    Probe.emit
      (Probe.Span
         { host = t.name; track = Probe.Busy; label = "busy"; start = started;
           finish })

let use_f ?priority t f =
  acquire ?priority t;
  let started = Sim.now t.sim in
  t.grants <- t.grants + 1;
  match f () with
  | v ->
      t.busy_time <- t.busy_time + Time.diff (Sim.now t.sim) started;
      probe_span t started;
      release t;
      v
  | exception exn ->
      t.busy_time <- t.busy_time + Time.diff (Sim.now t.sim) started;
      probe_span t started;
      release t;
      raise exn

let use ?priority t span =
  if span < 0 then invalid_arg "Resource.use: negative span";
  use_f ?priority t (fun () -> Process.delay span)

let busy_time t = t.busy_time
let grants t = t.grants

let reset_stats t =
  t.busy_time <- 0;
  t.grants <- 0

let utilization t ~since =
  let window = Time.diff (Sim.now t.sim) since in
  if window <= 0 then 0.
  else float_of_int t.busy_time /. float_of_int window
