open Engine

type t = { sim : Sim.t; cpu : Cpu.t; cost : Time.span; mutable switches : int }

type state = Fresh | Waiting of (unit -> unit) | Woken | Done
type slot = { sched : t; mutable state : state }

let create sim ~cpu ?(switch_cost = Time.us 1.) () =
  { sim; cpu; cost = switch_cost; switches = 0 }

let slot sched = { sched; state = Fresh }

let probe_sched sched mk =
  if !Probe.on then mk (Cpu.name sched.cpu) |> Probe.emit

let wait s =
  match s.state with
  | Fresh ->
      probe_sched s.sched (fun host -> Probe.Sched_block { host });
      Process.await (fun resume ->
          match s.state with
          | Fresh -> s.state <- Waiting resume
          | Woken ->
              s.state <- Done;
              resume ()
          | Waiting _ | Done -> invalid_arg "Sched.wait: slot reused")
  | Woken -> s.state <- Done
  | Waiting _ | Done -> invalid_arg "Sched.wait: slot reused"

let wake s =
  match s.state with
  | Woken | Done -> ()
  | Fresh ->
      s.sched.switches <- s.sched.switches + 1;
      probe_sched s.sched (fun host -> Probe.Sched_run { host });
      Cpu.work ~priority:`High s.sched.cpu s.sched.cost;
      (* The waiter may have arrived while the wakeup cost was paid. *)
      (match s.state with
      | Fresh -> s.state <- Woken
      | Waiting resume ->
          s.state <- Done;
          resume ()
      | Woken | Done -> ())
  | Waiting resume ->
      s.sched.switches <- s.sched.switches + 1;
      s.state <- Done;
      probe_sched s.sched (fun host -> Probe.Sched_run { host });
      Cpu.work ~priority:`High s.sched.cpu s.sched.cost;
      resume ()

let switches t = t.switches
