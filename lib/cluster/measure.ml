open Engine
open Os_model

type pair = {
  label : string;
  a_setup : unit -> unit;
  b_setup : unit -> unit;
  a_send : int -> unit;
  a_recv : int -> unit;
  b_send : int -> unit;
  b_recv : int -> unit;
}

let clic_pair cluster ~a ~b ?(port = 7) () =
  let na = Net.node cluster a and nb = Net.node cluster b in
  {
    label = "clic";
    a_setup = (fun () -> ());
    b_setup = (fun () -> ());
    a_send = (fun n -> Clic.Api.send na.Node.clic ~dst:b ~port n);
    a_recv = (fun _ -> ignore (Clic.Api.recv na.Node.clic ~port));
    b_send = (fun n -> Clic.Api.send nb.Node.clic ~dst:a ~port n);
    b_recv = (fun _ -> ignore (Clic.Api.recv nb.Node.clic ~port));
  }

let tcp_pair cluster ~a ~b ?(port = 5000) () =
  let na = Net.node cluster a and nb = Net.node cluster b in
  let conn_a = ref None and conn_b = ref None in
  let get slot = match !slot with Some c -> c | None -> assert false in
  Proto.Tcp.listen nb.Node.tcp ~port;
  {
    label = "tcp";
    a_setup = (fun () -> conn_a := Some (Proto.Tcp.connect na.Node.tcp ~dst:b ~port));
    b_setup = (fun () -> conn_b := Some (Proto.Tcp.accept nb.Node.tcp ~port));
    a_send = (fun n -> Proto.Tcp.send (get conn_a) n);
    a_recv = (fun n -> Proto.Tcp.recv (get conn_a) n);
    b_send = (fun n -> Proto.Tcp.send (get conn_b) n);
    b_recv = (fun n -> Proto.Tcp.recv (get conn_b) n);
  }

type pingpong_result = {
  one_way : Time.span;
  pp_bandwidth_mbps : float;
}

let pingpong cluster pair ~size ?(reps = 20) ?(warmup = 4) () =
  let sim = cluster.Net.sim in
  let started = Ivar.create () and elapsed = Ivar.create () in
  Process.spawn sim (fun () ->
      pair.b_setup ();
      for _ = 1 to warmup + reps do
        pair.b_recv size;
        pair.b_send size
      done);
  Process.spawn sim (fun () ->
      pair.a_setup ();
      for _ = 1 to warmup do
        pair.a_send size;
        pair.a_recv size
      done;
      let t0 = Sim.now sim in
      Ivar.fill started t0;
      for _ = 1 to reps do
        pair.a_send size;
        pair.a_recv size
      done;
      Ivar.fill elapsed (Time.diff (Sim.now sim) t0));
  Net.run cluster;
  let span = Ivar.peek elapsed in
  match span with
  | None -> failwith "Measure.pingpong: benchmark did not complete"
  | Some span ->
      let one_way = span / (2 * reps) in
      {
        one_way;
        pp_bandwidth_mbps = Units.bandwidth_mbps ~bytes:size ~span:one_way;
      }

type stream_result = {
  elapsed : Time.span;
  st_bandwidth_mbps : float;
  sender_cpu : float;
  receiver_cpu : float;
  receiver_interrupts : int;
}

let stream cluster pair ~a ~b ~size ~messages =
  let sim = cluster.Net.sim in
  let na = Net.node cluster a and nb = Net.node cluster b in
  let t0 = ref Time.zero and t1 = ref Time.zero in
  let irq0 = ref 0 in
  let sender_cpu = ref 0. and receiver_cpu = ref 0. and irqs = ref 0 in
  let setup_done = Ivar.create () in
  Process.spawn sim (fun () ->
      pair.b_setup ();
      Ivar.read setup_done;
      for _ = 1 to messages do
        pair.b_recv size
      done;
      (* Read the stats at the moment the last byte lands, before trailing
         timers stretch the clock. *)
      t1 := Sim.now sim;
      sender_cpu := Cpu.utilization (Node.cpu na) ~since:!t0;
      receiver_cpu := Cpu.utilization (Node.cpu nb) ~since:!t0;
      irqs := Interrupt.irqs_delivered nb.Node.intr - !irq0);
  Process.spawn sim (fun () ->
      pair.a_setup ();
      (* Handshakes (if any) stay outside the timed window. *)
      t0 := Sim.now sim;
      Cpu.reset_stats (Node.cpu na);
      Cpu.reset_stats (Node.cpu nb);
      irq0 := Interrupt.irqs_delivered nb.Node.intr;
      Ivar.fill setup_done ();
      for _ = 1 to messages do
        pair.a_send size
      done);
  Net.run cluster;
  let elapsed = Time.diff !t1 !t0 in
  {
    elapsed;
    st_bandwidth_mbps =
      Units.bandwidth_mbps ~bytes:(size * messages) ~span:elapsed;
    sender_cpu = !sender_cpu;
    receiver_cpu = !receiver_cpu;
    receiver_interrupts = !irqs;
  }
