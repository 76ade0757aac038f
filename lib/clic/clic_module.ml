open Engine
open Os_model
open Hw
open Proto

type message = {
  msg_src : int;
  msg_epoch : int;  (* the sender's boot epoch when it sent the message *)
  msg_id : int;
  msg_port : int;
  msg_bytes : int;
  msg_sync : bool;
  msg_broadcast : bool;
  msg_arrived : Time.t;
  mutable msg_uncopied : int;
}

type port = {
  queue : message Queue.t;
  mutable waiter : Sched.slot option;
}

type reasm = { mutable seen : int; mutable copied_bytes : int }

type staged_tx = { st_pkt : Wire.packet; st_dst : Mac.t; st_eth : Ethernet.t }

(* A confirmed send waiting for its end-to-end acknowledgement.  [sw_fail]
   fires instead of [sw_done] when the channel to [sw_dst] dies before the
   confirmation arrives — the waiter must not block forever on a peer that
   crashed. *)
type sync_waiter = {
  sw_dst : int;
  sw_done : unit -> unit;
  sw_fail : exn -> unit;
}

type t = {
  env : Hostenv.t;
  p : Params.t;
  epoch : int;  (* this kernel's boot epoch, stamped into every packet *)
  eths : Ethernet.t array;
  mutable rr : int;
  channels : (int, Channel.t) Hashtbl.t;
  peer_epochs : (int, int) Hashtbl.t;
      (* newest epoch seen per peer; older frames are stale and dropped *)
  ports : (int, port) Hashtbl.t;
  mutable next_msg_id : int;
  reassembly : (int * int, reasm) Hashtbl.t;
  sync_done : (int, sync_waiter) Hashtbl.t;
  regions : (int, int ref * (bytes:int -> src:int -> unit)) Hashtbl.t;
  backlog : staged_tx Queue.t;
  mutable draining : bool;
  mutable shut_down : bool;
  (* statistics *)
  mutable messages_delivered : int;
  mutable packets_sent : int;
  mutable packets_staged : int;
  mutable local_msgs : int;
  mutable stale_epoch_drops : int;
  mutable peer_reboots : int;
  mutable reestablishments : int;
}

let params t = t.p
let env_of t = t.env
let node t = t.env.Hostenv.node
let cpu t = t.env.Hostenv.cpu
let sim t = t.env.Hostenv.sim
let membus t = t.env.Hostenv.membus
let kmem t = t.env.Hostenv.kmem

(* Data bytes per CLIC packet: the largest packet the NIC takes (its MTU,
   or a super-packet when its firmware fragments) less the CLIC header. *)
let max_payload t =
  let nic = Driver.nic (Ethernet.env t.eths.(0)).Hostenv.driver in
  (if Nic.fragmentation nic then t.p.Params.super_packet_bytes
   else Nic.mtu nic)
  - t.p.Params.header_bytes

let get_port t id =
  match Hashtbl.find_opt t.ports id with
  | Some p -> p
  | None ->
      let p = { queue = Queue.create (); waiter = None } in
      Hashtbl.add t.ports id p;
      p

let next_eth t =
  let eth = t.eths.(t.rr mod Array.length t.eths) in
  t.rr <- t.rr + 1;
  eth

(* ------------------------------------------------------------------ *)
(* Transmit machinery *)

(* The user→kernel staging copy: buffer setup plus a cache-cold copy. *)
let stage_copy t bytes =
  Cpu.work (cpu t) t.p.Params.staging_overhead;
  Cpu.copy ~bytes_per_s:t.p.Params.staging_bytes_per_s (cpu t)
    ~membus:(membus t) bytes

(* Build the SK_BUFF for the configured data path, charging the staging
   copy when the path requires one.  Returns (skb, needs_dma,
   nic_internal_copy). *)
let prepare_skb t ~staged bytes =
  let header_bytes = t.p.Params.header_bytes in
  if staged then (Skbuff.of_kernel ~header_bytes bytes, true, true)
  else
    match t.p.Params.data_path with
    | Params.Pio_direct -> (Skbuff.of_user ~header_bytes bytes, false, false)
    | Params.Dma_nic_buffer -> (Skbuff.of_user ~header_bytes bytes, true, true)
    | Params.Staged_direct ->
        stage_copy t bytes;
        (Skbuff.of_kernel ~header_bytes bytes, true, false)
    | Params.Staged_nic_buffer ->
        stage_copy t bytes;
        (Skbuff.of_kernel ~header_bytes bytes, true, true)

(* Hand one prepared packet to the NIC behind [eth].  Returns false when
   the transmit ring is full. *)
let try_post t ~eth ~dst ~skb ~needs_dma ~internal_copy ~on_complete pkt =
  (* Once posted, the buffer lives until transmit completion; when the post
     fails the caller still owns (and must release) it. *)
  let on_complete () =
    Skbuff.release skb ~where:"clic:tx-complete";
    on_complete ()
  in
  let env = Ethernet.env eth in
  let driver = env.Hostenv.driver in
  let posted =
    if needs_dma then
      Driver.transmit driver ~skb ~dst ~src:(Mac.of_node (node t))
        ~ethertype:Wire.ethertype ~payload:(Wire.Clic pkt) ~internal_copy
        ~on_complete ()
    else begin
      (* Programmed I/O (path 1): after the driver routine, the CPU itself
         pushes the bytes across the PCI bus — it is held for the whole
         transfer, the cost the DMA paths avoid. *)
      Cpu.work (cpu t) (Driver.params driver).Driver.tx_routine;
      let nic = Driver.nic driver in
      (Resource.use_f (Cpu.resource (cpu t)) (fun () ->
           Bus.transfer (Nic.pci nic) (Skbuff.total_bytes skb))
      [@clic.allow_block
        "programmed I/O by design: the CPU is deliberately held for the \
         whole PCI transfer (the cost the DMA paths avoid), a bounded \
         busy-grant like Cpu.work, not an unbounded sleep"]);
      let frame =
        Eth_frame.make ~src:(Mac.of_node (node t)) ~dst
          ~ethertype:Wire.ethertype
          ~payload_bytes:(Skbuff.total_bytes skb)
          (Wire.Clic pkt)
      in
      Nic.try_post_tx nic
        { Nic.frame; needs_dma = false; internal_copy = false; on_complete }
    end
  in
  if posted then t.packets_sent <- t.packets_sent + 1;
  posted

let rec drain_backlog t =
  if not t.draining then begin
    t.draining <- true;
    let rec go () =
      match Queue.peek_opt t.backlog with
      | None -> ()
      | Some job ->
          let skb, needs_dma, internal_copy =
            prepare_skb t ~staged:true job.st_pkt.Wire.data_bytes
          in
          if
            try_post t ~eth:job.st_eth ~dst:job.st_dst ~skb ~needs_dma
              ~internal_copy ~on_complete:(on_complete t) job.st_pkt
          then begin
            (* A crash while this drain was blocked in [prepare_skb] or
               [try_post] ran [shutdown], which already freed and cleared
               the backlog: pop only if the head is still the job peeked
               at, never one queued since. *)
            if (not (Queue.is_empty t.backlog)) && Queue.peek t.backlog == job
            then begin
              ignore (Queue.pop t.backlog);
              if job.st_pkt.Wire.data_bytes > 0 then
                Kmem.free (kmem t) job.st_pkt.Wire.data_bytes
            end;
            go ()
          end
          else
            (* Ring still full: the job stays staged in the pool and a fresh
               SK_BUFF is built on the next completion. *)
            Skbuff.release skb ~where:"clic:backlog-wait"
    in
    go ();
    t.draining <- false
  end

and on_complete t () = Process.spawn (sim t) (fun () -> drain_backlog t)

(* Transmit one packet, blocking the caller only when both the ring and
   the staging pool are exhausted. *)
let transmit_packet t ~dst ~staged pkt =
  let eth = next_eth t in
  let skb, needs_dma, internal_copy =
    prepare_skb t ~staged pkt.Wire.data_bytes
  in
  let was_zero_copy = Skbuff.is_zero_copy skb in
  if
    not
      (try_post t ~eth ~dst ~skb ~needs_dma ~internal_copy
         ~on_complete:(on_complete t) pkt)
  then
    if
      pkt.Wire.data_bytes = 0
      || (Kmem.level (kmem t) <> `Hard
         && Kmem.try_alloc (kmem t) pkt.Wire.data_bytes)
    then begin
      (* Ring full: copy into system memory and return — the application
         continues while the packet waits for ring space (Section 3.1). *)
      if was_zero_copy then stage_copy t pkt.Wire.data_bytes;
      t.packets_staged <- t.packets_staged + 1;
      Skbuff.release skb ~where:"clic:stage-abandon";
      Queue.add { st_pkt = pkt; st_dst = dst; st_eth = eth } t.backlog
    end
    else begin
      (* No staging memory either: wait for a ring slot. *)
      let frame =
        Eth_frame.make ~src:(Mac.of_node (node t)) ~dst
          ~ethertype:Wire.ethertype
          ~payload_bytes:(Skbuff.total_bytes skb)
          (Wire.Clic pkt)
      in
      Nic.post_tx_blocking (Driver.nic (Ethernet.env eth).Hostenv.driver)
        {
          Nic.frame;
          needs_dma;
          internal_copy;
          on_complete =
            (fun () ->
              Skbuff.release skb ~where:"clic:tx-complete";
              on_complete t ());
        };
      t.packets_sent <- t.packets_sent + 1
    end

(* ------------------------------------------------------------------ *)
(* Channels *)

(* The transmit window this node advertises to its peers, shrunk while the
   kernel pool is under pressure (soft: a configurable fraction; hard: a
   single outstanding packet) so senders back off before the NIC has to
   drop their frames. *)
let advertised_window_of t =
  match Kmem.level (kmem t) with
  | `Normal -> t.p.Params.tx_window
  | `Soft ->
      max 1
        (int_of_float
           (t.p.Params.soft_window_frac *. float_of_int t.p.Params.tx_window))
  | `Hard -> 1

(* Wake every confirmed send still waiting on [peer]: its channel just
   died, so the confirmation can never arrive. *)
let reject_sync_waiters t peer =
  let doomed =
    Hashtbl.fold
      (fun id w acc -> if w.sw_dst = peer then (id, w) :: acc else acc)
      t.sync_done []
  in
  List.iter
    (fun (id, w) ->
      Hashtbl.remove t.sync_done id;
      w.sw_fail (Channel.Dead peer))
    doomed

let rec get_channel t peer =
  match Hashtbl.find_opt t.channels peer with
  | Some c when not (Channel.is_dead c) -> c
  | prior ->
      (match prior with
      | Some _ ->
          (* The previous channel was torn down (peer unreachable or
             rebooted); traffic to the peer re-establishes a fresh one. *)
          Hashtbl.remove t.channels peer;
          t.reestablishments <- t.reestablishments + 1
      | None -> ());
      let chan =
        Channel.create (sim t) ~self:(node t) ~peer ~epoch:t.epoch
          ~params:t.p
          ~transmit:(fun pkt ~retransmission ->
            transmit_packet t ~dst:(Mac.of_node peer)
              ~staged:retransmission pkt)
          ~deliver:(fun pkt -> handle_reliable t pkt)
          ~send_ack:(fun ~cum_seq ~sacks ~ce_echo ->
            Cpu.work (cpu t) t.p.Params.module_tx;
            transmit_packet t ~dst:(Mac.of_node peer) ~staged:true
              { Wire.src = node t; epoch = t.epoch; chan_seq = None;
                data_bytes = 0; ce = false;
                kind =
                  Wire.Chan_ack
                    { cum_seq; window = advertised_window_of t; ce_echo;
                      sacks } })
          ~defer_acks:(fun () -> Kmem.level (kmem t) <> `Normal)
          ~on_death:(fun () -> reject_sync_waiters t peer)
          ()
      in
      Hashtbl.add t.channels peer chan;
      chan

(* ------------------------------------------------------------------ *)
(* Receive-side delivery (interrupt context) *)

and[@clic.atomic] deliver_message t msg =
  t.messages_delivered <- t.messages_delivered + 1;
  if !Probe.on then
    Probe.emit
      (Probe.Msg_deliver
         {
           node = node t;
           src = msg.msg_src;
           port = msg.msg_port;
           msg_id = msg.msg_id;
           epoch = msg.msg_epoch;
         });
  let port = get_port t msg.msg_port in
  (match port.waiter with
  | Some slot ->
      (* A process is blocked in a receive on this port: CLIC_MODULE has
         been moving fragments to its user memory as they arrived; finish
         any remainder and wake it. *)
      port.waiter <- None;
      if msg.msg_uncopied > 0 then begin
        Cpu.traced (cpu t) Probe.Stage.Copy_to_user (fun () ->
            Cpu.copy ~priority:`High (cpu t) ~membus:(membus t)
              msg.msg_uncopied);
        msg.msg_uncopied <- 0
      end;
      Queue.add msg port.queue;
      Sched.wake slot
  | None -> Queue.add msg port.queue);
  if msg.msg_sync then begin
    (* Send the end-to-end confirmation back on the reliable channel. *)
    let chan = get_channel t msg.msg_src in
    Process.spawn (sim t) (fun () ->
        (* The confirmation is best-effort once the peer is unreachable:
           the sender's own channel will give up on its side too. *)
        match
          Channel.next_seq chan ~data_bytes:0
            (Wire.Msg_ack { msg_id = msg.msg_id })
        with
        | pkt ->
            Cpu.work (cpu t) t.p.Params.module_tx;
            transmit_packet t ~dst:(Mac.of_node msg.msg_src) ~staged:true pkt
        | exception Channel.Dead _ -> ())
  end

and[@clic.atomic] handle_fragment t ~src ~epoch ~sync ~broadcast ~port ~bytes
    (frag : Wire.frag) =
  let key = (src, frag.Wire.msg_id) in
  let slot =
    match Hashtbl.find_opt t.reassembly key with
    | Some s -> s
    | None ->
        let s = { seen = 0; copied_bytes = 0 } in
        Hashtbl.add t.reassembly key s;
        s
  in
  slot.seen <- slot.seen + 1;
  (* When a receive is already posted on the port, each arriving fragment
     goes straight to user memory (the paper's Figure 3, step 7); only a
     process that asks later pays the copy in its own receive call. *)
  if (get_port t port).waiter <> None && bytes > 0 then begin
    Cpu.traced (cpu t) Probe.Stage.Copy_to_user (fun () ->
        Cpu.copy ~priority:`High (cpu t) ~membus:(membus t) bytes);
    slot.copied_bytes <- slot.copied_bytes + bytes
  end;
  if slot.seen = frag.Wire.frag_count then begin
    Hashtbl.remove t.reassembly key;
    deliver_message t
      {
        msg_src = src;
        msg_epoch = epoch;
        msg_id = frag.Wire.msg_id;
        msg_port = port;
        msg_bytes = frag.Wire.msg_bytes;
        msg_sync = sync;
        msg_broadcast = broadcast;
        msg_arrived = Sim.now (sim t);
        msg_uncopied = frag.Wire.msg_bytes - slot.copied_bytes;
      }
  end

and[@clic.atomic] handle_reliable t (pkt : Wire.packet) =
  Cpu.traced (cpu t) Probe.Stage.Module_rx (fun () ->
      Cpu.work ~priority:`High (cpu t) t.p.Params.module_rx);
  match pkt.kind with
  | Wire.Data { port; sync; frag } ->
      handle_fragment t ~src:pkt.src ~epoch:pkt.epoch ~sync ~broadcast:false
        ~port ~bytes:pkt.data_bytes frag
  | Wire.Remote_write { region; frag } ->
      handle_rwrite_fragment t ~src:pkt.src ~region ~bytes:pkt.data_bytes frag
  | Wire.Msg_ack { msg_id } -> (
      match Hashtbl.find_opt t.sync_done msg_id with
      | Some w ->
          Hashtbl.remove t.sync_done msg_id;
          w.sw_done ()
      | None -> ())
  | Wire.Bcast _ | Wire.Chan_ack _ -> ()

and handle_rwrite_fragment t ~src ~region ~bytes frag =
  (* Remote write: data goes straight to the target user memory, fragment
     by fragment, with no receive call involved. *)
  Cpu.traced (cpu t) Probe.Stage.Copy_to_user (fun () ->
      Cpu.copy ~priority:`High (cpu t) ~membus:(membus t) bytes);
  (match Hashtbl.find_opt t.regions region with
  | Some (count, notify) ->
      count := !count + bytes;
      if frag.Wire.frag_index = frag.Wire.frag_count - 1 then
        notify ~bytes:frag.Wire.msg_bytes ~src
  | None -> ())

(* An arriving packet's epoch against the newest we have seen from its
   sender.  [`Stale] frames were transmitted (or buffered in flight)
   before the sender's last reboot and must not touch channel state;
   [`Newer] is the first frame of a rebooted peer: its pre-crash channel
   and half-reassembled messages are discarded before normal handling. *)
let classify_epoch t ~src epoch =
  match Hashtbl.find_opt t.peer_epochs src with
  | None ->
      Hashtbl.add t.peer_epochs src epoch;
      `Current
  | Some known ->
      if epoch < known then `Stale
      else if epoch > known then begin
        Hashtbl.replace t.peer_epochs src epoch;
        `Newer
      end
      else `Current

let forget_peer t src =
  (* The dead channel stays in the table: [get_channel] replaces it on the
     next outbound traffic and counts the re-establishment. *)
  (match Hashtbl.find_opt t.channels src with
  | Some c -> if not (Channel.is_dead c) then Channel.teardown c
  | None -> ());
  let stale_keys =
    Hashtbl.fold
      (fun ((s, _) as key) _ acc -> if s = src then key :: acc else acc)
      t.reassembly []
  in
  List.iter (Hashtbl.remove t.reassembly) stale_keys

(* Entry point from the driver upcall. *)
let[@clic.atomic] rx t (desc : Nic.rx_desc) =
  match desc.Nic.rx_frame.Eth_frame.payload with
  | Wire.Clic pkt when not t.shut_down -> (
      (* A switch marks congestion on the frame (its CE rewrite happens in
         flight, below the payload value); fold it into the packet header
         the channel sees. *)
      let pkt =
        if desc.Nic.rx_frame.Eth_frame.ce && not pkt.Wire.ce then
          { pkt with Wire.ce = true }
        else pkt
      in
      match classify_epoch t ~src:pkt.src pkt.Wire.epoch with
      | `Stale -> t.stale_epoch_drops <- t.stale_epoch_drops + 1
      | (`Current | `Newer) as cls -> (
          if cls = `Newer then begin
            t.peer_reboots <- t.peer_reboots + 1;
            forget_peer t pkt.src
          end;
          match pkt.kind with
          | Wire.Chan_ack { cum_seq; window; ce_echo; sacks } -> (
              Cpu.work ~priority:`High (cpu t) t.p.Params.module_rx;
              (* Acks only ever apply to a live channel; they must not
                 re-establish one on their own. *)
              match Hashtbl.find_opt t.channels pkt.src with
              | Some c when not (Channel.is_dead c) ->
                  Channel.rx_ack c ~window ~sacks ~ce_echo cum_seq
              | Some _ | None -> ())
          | Wire.Bcast { port; frag } ->
              Cpu.traced (cpu t) Probe.Stage.Module_rx (fun () ->
                  Cpu.work ~priority:`High (cpu t) t.p.Params.module_rx);
              handle_fragment t ~src:pkt.src ~epoch:pkt.Wire.epoch
                ~sync:false ~broadcast:true ~port ~bytes:pkt.data_bytes frag
          | Wire.Data _ | Wire.Remote_write _ | Wire.Msg_ack _ ->
              Channel.rx (get_channel t pkt.src) pkt))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let create env ?(params = Params.default) ?(epoch = 0) eths =
  if eths = [] then invalid_arg "Clic_module.create: no ethernet attachments";
  if epoch < 0 then invalid_arg "Clic_module.create: negative epoch";
  let params = Params.validate params in
  let t =
    {
      env;
      p = params;
      epoch;
      eths = Array.of_list eths;
      rr = 0;
      channels = Hashtbl.create 8;
      peer_epochs = Hashtbl.create 8;
      ports = Hashtbl.create 8;
      next_msg_id = 0;
      reassembly = Hashtbl.create 16;
      sync_done = Hashtbl.create 8;
      regions = Hashtbl.create 4;
      backlog = Queue.create ();
      draining = false;
      shut_down = false;
      messages_delivered = 0;
      packets_sent = 0;
      packets_staged = 0;
      local_msgs = 0;
      stale_epoch_drops = 0;
      peer_reboots = 0;
      reestablishments = 0;
    }
  in
  List.iter
    (fun eth -> Ethernet.register eth ~ethertype:Wire.ethertype (rx t))
    eths;
  t

(* Crash/orderly-stop path: tear every channel down (waking blocked senders
   with {!Channel.Dead}), return staged backlog bytes to the pool so its
   accounting balances, and drop all in-progress receive state.  The module
   stops accepting frames; a rebooted node builds a fresh module with a
   higher epoch. *)
let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Hashtbl.iter
      (fun _ c -> if not (Channel.is_dead c) then Channel.teardown c)
      t.channels;
    Hashtbl.reset t.channels;
    Queue.iter
      (fun job ->
        if job.st_pkt.Wire.data_bytes > 0 then
          Kmem.free (kmem t) job.st_pkt.Wire.data_bytes)
      t.backlog;
    Queue.clear t.backlog;
    Hashtbl.reset t.reassembly;
    Hashtbl.reset t.sync_done;
    Hashtbl.reset t.peer_epochs;
    Hashtbl.iter (fun _ p -> Queue.clear p.queue) t.ports
  end

(* ------------------------------------------------------------------ *)
(* Kernel-side send/receive operations *)

let fragments_of t bytes =
  let chunk = max_payload t in
  let count = max 1 ((bytes + chunk - 1) / chunk) in
  List.init count (fun index ->
      let len =
        if index = count - 1 then bytes - (index * chunk) else chunk
      in
      (index, count, len))

let local_delivery t ~port ~sync bytes ~sync_done =
  (* Same-node communication: through system memory, no NIC. *)
  t.local_msgs <- t.local_msgs + 1;
  Cpu.copy (cpu t) ~membus:(membus t) bytes;
  deliver_message t
    {
      msg_src = node t;
      msg_epoch = t.epoch;
      msg_id = -1;
      msg_port = port;
      msg_bytes = bytes;
      msg_sync = false;
      msg_broadcast = false;
      msg_arrived = Sim.now (sim t);
      msg_uncopied = bytes;
    };
  if sync then sync_done ()

let send_message t ~dst ~port ?(sync = false) ?(sync_failed = fun _ -> ())
    bytes ~sync_done =
  if bytes < 0 then invalid_arg "Clic_module.send_message: negative size";
  if dst = node t then local_delivery t ~port ~sync bytes ~sync_done
  else begin
    let msg_id = t.next_msg_id in
    t.next_msg_id <- t.next_msg_id + 1;
    if !Probe.on then
      Probe.emit
        (Probe.Msg_send
           { node = node t; dst; port; msg_id; bytes; epoch = t.epoch });
    if sync then
      Hashtbl.replace t.sync_done msg_id
        { sw_dst = dst; sw_done = sync_done; sw_fail = sync_failed };
    let chan = get_channel t dst in
    List.iter
      (fun (frag_index, frag_count, len) ->
        Cpu.traced (cpu t) Probe.Stage.Module_tx (fun () ->
            Cpu.work (cpu t) t.p.Params.module_tx);
        let frag =
          { Wire.msg_id; frag_index; frag_count; msg_bytes = bytes }
        in
        let pkt =
          Channel.next_seq chan ~data_bytes:len
            (Wire.Data { port; sync; frag })
        in
        transmit_packet t ~dst:(Mac.of_node dst) ~staged:false pkt)
      (fragments_of t bytes)
  end

let broadcast_message t ~port bytes =
  if bytes < 0 then invalid_arg "Clic_module.broadcast_message: negative size";
  let msg_id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  List.iter
    (fun (frag_index, frag_count, len) ->
      Cpu.work (cpu t) t.p.Params.module_tx;
      let frag = { Wire.msg_id; frag_index; frag_count; msg_bytes = bytes } in
      transmit_packet t ~dst:Mac.broadcast ~staged:false
        { Wire.src = node t; epoch = t.epoch; chan_seq = None;
          data_bytes = len; ce = false; kind = Wire.Bcast { port; frag } })
    (fragments_of t bytes)

let remote_write t ~dst ~region bytes =
  if bytes < 0 then invalid_arg "Clic_module.remote_write: negative size";
  if dst = node t then begin
    t.local_msgs <- t.local_msgs + 1;
    Cpu.copy (cpu t) ~membus:(membus t) bytes;
    match Hashtbl.find_opt t.regions region with
    | Some (count, notify) ->
        count := !count + bytes;
        notify ~bytes ~src:(node t)
    | None -> ()
  end
  else begin
    let msg_id = t.next_msg_id in
    t.next_msg_id <- t.next_msg_id + 1;
    let chan = get_channel t dst in
    List.iter
      (fun (frag_index, frag_count, len) ->
        Cpu.work (cpu t) t.p.Params.module_tx;
        let frag =
          { Wire.msg_id; frag_index; frag_count; msg_bytes = bytes }
        in
        let pkt =
          Channel.next_seq chan ~data_bytes:len
            (Wire.Remote_write { region; frag })
        in
        transmit_packet t ~dst:(Mac.of_node dst) ~staged:false pkt)
      (fragments_of t bytes)
  end

let recv_poll t ~port =
  let p = get_port t port in
  match Queue.take_opt p.queue with
  | None -> None
  | Some msg ->
      if msg.msg_uncopied > 0 then begin
        Cpu.copy (cpu t) ~membus:(membus t) msg.msg_uncopied;
        msg.msg_uncopied <- 0
      end;
      if !Probe.on then
        Probe.emit
          (Probe.Msg_recv
             {
               node = node t;
               src = msg.msg_src;
               port = msg.msg_port;
               msg_id = msg.msg_id;
               epoch = msg.msg_epoch;
             });
      Some msg

let recv_wait t ~port =
  let p = get_port t port in
  let rec loop () =
    match recv_poll t ~port with
    | Some msg -> msg
    | None ->
        if p.waiter <> None then
          invalid_arg "Clic_module.recv_wait: port already has a waiter";
        let slot = Sched.slot t.env.Hostenv.sched in
        p.waiter <- Some slot;
        Sched.wait slot;
        loop ()
  in
  loop ()

let register_region t ~region notify =
  if Hashtbl.mem t.regions region then
    invalid_arg "Clic_module.register_region: duplicate region";
  Hashtbl.add t.regions region (ref 0, notify)

let region_bytes t ~region =
  match Hashtbl.find_opt t.regions region with
  | Some (count, _) -> !count
  | None -> 0

let messages_delivered t = t.messages_delivered
let packets_sent t = t.packets_sent
let packets_staged t = t.packets_staged
let local_messages t = t.local_msgs
let epoch t = t.epoch
let stale_epoch_drops t = t.stale_epoch_drops
let peer_reboots t = t.peer_reboots
let reestablishments t = t.reestablishments
let advertised_window t = advertised_window_of t

let acks_deferred t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.acks_deferred c) t.channels 0
let retransmissions t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.retransmissions c) t.channels 0

let timeouts t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.timeouts c) t.channels 0

let fast_retransmits t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.fast_retransmits c) t.channels 0

let sacked_segments t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.sacked_segments c) t.channels 0

let retx_bytes t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.retx_bytes c) t.channels 0

let retx_bytes_saved t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.retx_bytes_saved c) t.channels 0

let ce_echoes t =
  Hashtbl.fold (fun _ c acc -> acc + Channel.ce_echoes c) t.channels 0

let channel_to t ~peer = Hashtbl.find_opt t.channels peer
