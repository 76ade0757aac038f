open Engine

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  dispatch_latency : Time.span;
  mutable irqs : int;
  mutable isr_time : Time.span;
}

let create sim ~cpu ?(dispatch_latency = Time.us 5.) () =
  { sim; cpu; dispatch_latency; irqs = 0; isr_time = 0 }

(* The ISR body charges its CPU work itself at [`High] priority (via
   [Cpu.work ~priority:`High]); the controller only models delivery latency
   and accounts time.  Acquiring the CPU per work item (rather than for the
   whole ISR) models the preemption points real ISRs have and avoids
   self-deadlock on the CPU resource. *)
let raise_irq t ~isr =
  t.irqs <- t.irqs + 1;
  Process.spawn t.sim ~delay:t.dispatch_latency (fun () ->
      let started = Sim.now t.sim in
      isr ();
      t.isr_time <- t.isr_time + Time.diff (Sim.now t.sim) started)

let irqs_delivered t = t.irqs
let time_in_isr t = t.isr_time
