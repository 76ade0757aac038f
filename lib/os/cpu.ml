open Engine

type t = {
  sim : Sim.t;
  name : string;
  res : Resource.t;
  copy_bytes_per_s : float;
}

let create sim ~name ?(copy_bytes_per_s = 300e6) () =
  if copy_bytes_per_s <= 0. then invalid_arg "Cpu.create: copy rate <= 0";
  { sim; name; res = Resource.create sim ~name; copy_bytes_per_s }

let name t = t.name
let resource t = t.res
let work ?priority t span = Resource.use ?priority t.res span

let traced t stage f =
  if !Probe.on then begin
    let start = Sim.now t.sim in
    let v = f () in
    Probe.emit
      (Probe.Span
         { host = t.name; track = Probe.Stage.track stage; stage; start;
           finish = Sim.now t.sim });
    v
  end
  else f ()

(* Long CPU work is preemptible at quantum boundaries: slicing lets
   higher-priority interrupt work — and other tasks — interleave, as the
   real kernel's preemption points do. *)
let default_quantum = Time.us 50.

let work_sliced ?priority ?(quantum = default_quantum) t span =
  if quantum <= 0 then invalid_arg "Cpu.work_sliced: quantum <= 0";
  let rec go remaining =
    if remaining > 0 then begin
      Resource.use ?priority t.res (min quantum remaining);
      go (remaining - quantum)
    end
  in
  go span

let copy_time ?bytes_per_s t n =
  let rate = Option.value bytes_per_s ~default:t.copy_bytes_per_s in
  Time.of_bytes_at_rate ~bytes_per_s:rate n

let copy ?priority ?bytes_per_s t ~membus n =
  if n < 0 then invalid_arg "Cpu.copy: negative size"
  else if n > 0 then begin
    (* The memory-bus crossing (read + write) happens while the CPU is
       held; neither the CPU nor later bus users see it as free. *)
    Process.fork (fun () -> Bus.transfer membus (Hw.Membus.copy_bytes n));
    work_sliced ?priority t (copy_time ?bytes_per_s t n)
  end

let utilization t ~since = Resource.utilization t.res ~since
let reset_stats t = Resource.reset_stats t.res
