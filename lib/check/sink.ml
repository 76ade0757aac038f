(* The probe sink of every checked run: the lifecycle sanitizer, the
   invariant monitors and an optional determinism hash, fed from one
   stream.

   A monitor reads one to three of the probe's 39 event kinds.  In the
   checked experiments [Clock], read by one monitor, is a third of the
   stream, and about half the events are read by no monitor, so handing
   every event to every monitor spends most of the invariant pass
   returning [None].  [routes] maps each kind's index to the monitors
   that read it, in [Invariants.create_all] order, so the monitors that
   fire on one event still report in that order.  [Sim_start] routes to
   every monitor: each resets its state there. *)

open Engine

type t = {
  lifecycle : Lifecycle.t;
  trace : Determinism.t option;
  routes : Invariants.monitor array array;  (* by [Probe.Kind.index] *)
  mutable now : int;
  mutable found : Violation.t list;  (* newest first *)
}

let route monitors =
  let sim_start = Probe.Kind.index Probe.Kind.Sim_start in
  Array.init Probe.Kind.count (fun i ->
      List.filter
        (fun (m : Invariants.monitor) ->
          i = sim_start
          || List.exists (fun k -> Probe.Kind.index k = i) m.reads)
        monitors
      |> Array.of_list)

let create ?trace () =
  {
    lifecycle = Lifecycle.create ~leak_check:true ();
    trace;
    routes = route (Invariants.create_all ());
    now = 0;
    found = [];
  }

let on_event t ev =
  (match ev with
  | Probe.Clock { now } -> t.now <- now
  | Probe.Sim_start -> t.now <- 0
  | _ -> ());
  Lifecycle.on_event t.lifecycle ev;
  let monitors = t.routes.(Probe.Kind.index (Probe.kind ev)) in
  for i = 0 to Array.length monitors - 1 do
    let (m : Invariants.monitor) = monitors.(i) in
    match m.on_event ~now:t.now ev with
    | Some detail ->
        t.found <-
          Violation.make ~pass:("invariant:" ^ m.name) ~rule:m.name
            ~time_ns:t.now detail
          :: t.found
    | None -> ()
  done;
  match t.trace with Some d -> Determinism.on_event d ev | None -> ()

let now t = t.now
let finish t = Lifecycle.finish t.lifecycle @ List.rev t.found
let notes t = Lifecycle.notes t.lifecycle
