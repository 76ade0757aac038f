type priority = [ `High | `Low ]

type t = {
  sim : Sim.t;
  name : string;
  mutable busy : bool;
  high : Sim.waiter Ring.t;
  low : Sim.waiter Ring.t;
  mutable busy_time : Time.span;
  mutable grants : int;
}

let create sim ~name =
  {
    sim;
    name;
    busy = false;
    high = Ring.empty ();
    low = Ring.empty ();
    busy_time = 0;
    grants = 0;
  }

let is_busy t = t.busy

(* A release hands the resource straight to the next waiter, which
   resumes inside this call; [busy] stays set across the handoff. *)
let release t =
  if not (Ring.is_empty t.high) then Process.wake t.high
  else if not (Ring.is_empty t.low) then Process.wake t.low
  else t.busy <- false

let acquire ?(priority = `Low) t =
  if t.busy then
    Process.wait_in (match priority with `High -> t.high | `Low -> t.low)
  else t.busy <- true

(* Positive-duration grants double as occupancy spans for the
   observability layer; zero-length grants (scheduling points) would only
   add noise. *)
let probe_span t started =
  let finish = Sim.now t.sim in
  if finish > started && !Probe.on then
    Probe.emit
      (Probe.Span
         { host = t.name; track = Probe.Busy; stage = Probe.Stage.Busy;
           start = started; finish })

let grant ?priority t =
  acquire ?priority t;
  t.grants <- t.grants + 1;
  Sim.now t.sim

let finish t started =
  t.busy_time <- t.busy_time + Time.diff (Sim.now t.sim) started;
  probe_span t started;
  release t

let use_f ?priority t f =
  let started = grant ?priority t in
  match f () with
  | v ->
      finish t started;
      v
  | exception exn ->
      finish t started;
      raise exn

(* No closure and no exception handler: [Process.delay] only returns,
   since nothing discontinues a process. *)
let use ?priority t span =
  if span < 0 then invalid_arg "Resource.use: negative span";
  let started = grant ?priority t in
  Process.delay span;
  finish t started

let busy_time t = t.busy_time
let grants t = t.grants

let reset_stats t =
  t.busy_time <- 0;
  t.grants <- 0

let utilization t ~since =
  let window = Time.diff (Sim.now t.sim) since in
  if window <= 0 then 0.
  else float_of_int t.busy_time /. float_of_int window
