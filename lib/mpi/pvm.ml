open Engine
open Os_model

type params = {
  fragment_bytes : int;
  daemon_window : int;
  task_to_daemon : Time.span;
  per_fragment : Time.span;
  retransmit_timeout : Time.span;
}

let default_params =
  {
    fragment_bytes = 4080;
    daemon_window = 3;
    task_to_daemon = Time.us 15.;
    per_fragment = Time.us 12.;
    retransmit_timeout = Time.ms 100.;
  }

let pvmd_port = 5555

type Proto.Packet.app +=
  | Pvm_frag of {
      pv_src : int;
      pv_msg : int;
      pv_tag : int;
      pv_index : int;
      pv_count : int;
      pv_total : int;
    }
  | Pvm_ack of { pva_src : int; pva_msg : int; pva_index : int }

type outgoing = { o_dst : int; o_tag : int; o_bytes : int }

type reasm = { mutable got : int; r_tag : int; r_total : int; r_count : int }

type t = {
  env : Proto.Hostenv.t;
  udp : Proto.Udp.t;
  p : params;
  outbox : outgoing Mailbox.t;
  inbox : (int * int * int) Queue.t;  (* src, tag, bytes *)
  mutable inbox_waiter : Sched.slot option;
  acks : (int * int, unit Ivar.t) Hashtbl.t;  (* (msg, index) -> ack *)
  reassembly : (int * int, reasm) Hashtbl.t;  (* (src, msg) *)
  mutable next_msg : int;
  mutable routed : int;
}

let cpu t = t.env.Proto.Hostenv.cpu
let node t = t.env.Proto.Hostenv.node

(* The daemon's transmit side: fragment each queued message and send the
   fragments over UDP with a bounded window, waiting for daemon-level
   acks (retransmitting on timeout, though the simulated switch only
   drops under fault injection). *)
let daemon_tx t () =
  let rec loop () =
    let msg = Mailbox.recv t.outbox in
    let id = t.next_msg in
    t.next_msg <- t.next_msg + 1;
    let count = max 1 ((msg.o_bytes + t.p.fragment_bytes - 1) / t.p.fragment_bytes) in
    let window = Semaphore.create t.p.daemon_window in
    let all_acked = Semaphore.create 0 in
    for index = 0 to count - 1 do
      Semaphore.acquire window;
      let bytes =
        if index = count - 1 then msg.o_bytes - (index * t.p.fragment_bytes)
        else t.p.fragment_bytes
      in
      Cpu.work (cpu t) t.p.per_fragment;
      let ack = Ivar.create () in
      Hashtbl.replace t.acks (id, index) ack;
      let app =
        Pvm_frag
          { pv_src = node t; pv_msg = id; pv_tag = msg.o_tag; pv_index = index;
            pv_count = count; pv_total = msg.o_bytes }
      in
      (* bounded retransmission: a daemon that never acknowledges is
         eventually declared unreachable, keeping the simulation live *)
      let attempts = ref 0 in
      let timer = ref None in
      let rec send_once () =
        incr attempts;
        Proto.Udp.sendto t.udp ~dst:msg.o_dst ~dst_port:pvmd_port
          ~src_port:pvmd_port ~bytes:(bytes + 24) ~app ();
        timer :=
          Some
            (Ktimer.after t.env.Proto.Hostenv.sim t.p.retransmit_timeout
               (fun () ->
                 if (not (Ivar.is_filled ack)) && !attempts < 20 then
                   Process.spawn t.env.Proto.Hostenv.sim send_once))
      in
      send_once ();
      Process.fork (fun () ->
          Ivar.read ack;
          (* An acked fragment's timer would only fire as a no-op, keeping
             its closure and ack alive and the clock running 100 ms past
             the last delivery. *)
          Option.iter Ktimer.cancel !timer;
          Hashtbl.remove t.acks (id, index);
          Semaphore.release window;
          Semaphore.release all_acked)
    done;
    Semaphore.acquire ~n:count all_acked;
    t.routed <- t.routed + 1;
    loop ()
  in
  loop ()

let wake_inbox t =
  match t.inbox_waiter with
  | Some slot ->
      t.inbox_waiter <- None;
      Sched.wake slot
  | None -> ()

(* Daemon receive side: runs in the UDP handler (interrupt context). *)
let on_datagram t (d : Proto.Packet.udp_datagram) ~src =
  match d.Proto.Packet.udp_app with
  | Pvm_frag f ->
      Cpu.work ~priority:`High (cpu t) t.p.per_fragment;
      (* daemon-level ack back to the sending daemon *)
      Process.spawn t.env.Proto.Hostenv.sim (fun () ->
          Proto.Udp.sendto t.udp ~dst:src ~dst_port:pvmd_port
            ~src_port:pvmd_port ~bytes:16
            ~app:(Pvm_ack
                    { pva_src = node t; pva_msg = f.pv_msg;
                      pva_index = f.pv_index })
            ());
      let key = (f.pv_src, f.pv_msg) in
      let slot =
        match Hashtbl.find_opt t.reassembly key with
        | Some r -> r
        | None ->
            let r =
              { got = 0; r_tag = f.pv_tag; r_total = f.pv_total;
                r_count = f.pv_count }
            in
            Hashtbl.add t.reassembly key r;
            r
      in
      slot.got <- slot.got + 1;
      if slot.got = slot.r_count then begin
        Hashtbl.remove t.reassembly key;
        (* daemon → task handoff: copy plus wakeup *)
        Cpu.work ~priority:`High (cpu t) t.p.task_to_daemon;
        (* pvmd's buffers are cold: the handoff copy runs at staging rate *)
        Cpu.copy ~priority:`High ~bytes_per_s:150e6 (cpu t)
          ~membus:t.env.Proto.Hostenv.membus slot.r_total;
        t.routed <- t.routed + 1;
        Queue.add (f.pv_src, slot.r_tag, slot.r_total) t.inbox;
        wake_inbox t
      end
  | Pvm_ack a -> (
      match Hashtbl.find_opt t.acks (a.pva_msg, a.pva_index) with
      | Some iv -> if not (Ivar.is_filled iv) then Ivar.fill iv ()
      | None -> ())
  | _ -> ()

let create env udp ?(params = default_params) () =
  let t =
    {
      env;
      udp;
      p = params;
      outbox = Mailbox.create ();
      inbox = Queue.create ();
      inbox_waiter = None;
      acks = Hashtbl.create 32;
      reassembly = Hashtbl.create 8;
      next_msg = 0;
      routed = 0;
    }
  in
  Proto.Udp.bind udp ~port:pvmd_port (on_datagram t);
  Process.spawn env.Proto.Hostenv.sim (daemon_tx t);
  t

let send t ~dst ~tag n =
  if n < 0 then invalid_arg "Pvm.send: negative size";
  (* task → daemon: syscall-ish handoff plus a copy into daemon memory *)
  Cpu.work (cpu t) t.p.task_to_daemon;
  Cpu.copy ~bytes_per_s:150e6 (cpu t) ~membus:t.env.Proto.Hostenv.membus n;
  Mailbox.send t.outbox { o_dst = dst; o_tag = tag; o_bytes = n }

let rec recv t ?tag () =
  let match_tag (_, g, _) =
    match tag with None -> true | Some want -> want = g
  in
  let found = ref None in
  let keep = Queue.create () in
  Queue.iter
    (fun m -> if !found = None && match_tag m then found := Some m
      else Queue.add m keep)
    t.inbox;
  Queue.clear t.inbox;
  Queue.transfer keep t.inbox;
  match !found with
  | Some m -> m
  | None ->
      let slot = Sched.slot t.env.Proto.Hostenv.sched in
      t.inbox_waiter <- Some slot;
      Sched.wait slot;
      recv t ?tag ()

let messages_routed t = t.routed
