open Engine

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  dispatch_latency : Time.span;
  queue : (unit -> unit) Queue.t;
  mutable running : bool;
  mutable executed : int;
}

let create sim ~cpu ?(dispatch_latency = Time.us 1.0) () =
  { sim; cpu; dispatch_latency; queue = Queue.create (); running = false;
    executed = 0 }

let[@clic.atomic] rec pump t () =
  match Queue.take_opt t.queue with
  | None -> t.running <- false
  | Some thunk ->
      thunk ();
      t.executed <- t.executed + 1;
      pump t ()

let schedule t thunk =
  Queue.add thunk t.queue;
  if not t.running then begin
    t.running <- true;
    Process.spawn t.sim ~delay:t.dispatch_latency (fun () ->
        (* A token acquisition marks the moment the kernel gets around to
           running bottom halves; the thunks then charge their own work. *)
        Cpu.work ~priority:`High t.cpu 0;
        pump t ())
  end

let executed t = t.executed
