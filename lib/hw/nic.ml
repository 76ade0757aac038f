open Engine

let log_src = Logs.Src.create "hw.nic" ~doc:"NIC model"

module Log = (val Logs.src_log log_src : Logs.LOG)

type coalesce = {
  max_frames : int;
  quiet : Time.span;
  absolute : Time.span;
}

let no_coalesce = { max_frames = 1; quiet = 0; absolute = 0 }
let default_coalesce = { max_frames = 8; quiet = Time.us 2.; absolute = Time.us 50. }

type pause = {
  honor : bool;
  gen_high : int;
  gen_low : int;
  gen_quanta : int;
}

let pause_802_3x =
  { honor = true; gen_high = 0; gen_low = 0; gen_quanta = Mac_control.max_quanta }

type tx_desc = {
  frame : Eth_frame.t;
  needs_dma : bool;
  internal_copy : bool;
  on_complete : unit -> unit;
}

type rx_desc = {
  rx_id : int;  (* process-unique, for the lifecycle sanitizer *)
  rx_frame : Eth_frame.t;
  host_bytes : int;
  arrived : Time.t;
}

let next_rx_id = ref 0

type reasm = {
  mutable seen : int;
  mutable template : Eth_frame.t option;
  mutable ce_any : bool;
      (* a CE mark on any fragment survives reassembly: the congestion
         signal must not be lost because only part of the packet sat in
         the hot queue *)
}

type t = {
  sim : Sim.t;
  name : string;
  mtu : int;
  pci : Bus.t;
  membus : Bus.t;
  coalesce : coalesce;
  internal_bytes_per_s : float;
  firmware_per_frame : Time.span;
  fragmentation : bool;
  (* transmit side *)
  tx_slots : Semaphore.t;
  tx_queue : tx_desc Mailbox.t;
  phy_queue : tx_desc Mailbox.t;
  phy_slots : Semaphore.t;
  mutable next_packet_id : int;
  mutable uplink : Link.t option;
  (* receive side *)
  rx_slots : Semaphore.t;
  rx_wire : Eth_frame.t Mailbox.t;
  pending : rx_desc Queue.t;
  reassembly : (string * int, reasm) Hashtbl.t;
  mutable irq_handler : (unit -> unit) option;
  mutable masked : bool;
  mutable quiet_timer : Sim.handle option;
  mutable quiet_deadline : Time.t;
  mutable abs_timer : Sim.handle option;
  mutable rx_admission : (bytes:int -> bool) option;
  mutable down : bool;
  (* 802.3x flow control *)
  pause : pause option;
  mutable tx_paused : bool;
  mutable pause_started : Time.t;
  mutable pause_resume : Sim.handle option;
  mutable pause_wake : unit Ivar.t;
  mutable gen_xoff_sent : bool;
  (* gray failure: fail-slow service inflation *)
  mutable slow_factor : float;
  mutable slow_extra_ns : int;
  (* statistics *)
  mutable interrupts_raised : int;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable rx_dropped : int;
  mutable rx_dropped_mem : int;
  mutable bad_fcs : int;
  mutable tx_paused_acc : int;
  mutable pause_frames_rx : int;
  mutable pause_frames_tx : int;
}

let cancel_timer = function Some h -> Sim.cancel h | None -> ()

let[@clic.hot] probe_ring_depth t =
  if !Probe.on then
    Probe.emit
      (Probe.Queue_depth
         { queue = t.name ^ ":rx-ring"; depth = Queue.length t.pending })

let internal_move_time t bytes =
  Time.of_bytes_at_rate ~bytes_per_s:t.internal_bytes_per_s bytes

(* Fail-slow inflation of a firmware/DMA service span.  At the default
   factor of 1.0 this is exactly [base], so healthy runs are untouched. *)
let service_span t base =
  if t.slow_factor = 1.0 then base
  else begin
    let inflated = int_of_float (float_of_int base *. t.slow_factor) in
    t.slow_extra_ns <- t.slow_extra_ns + (inflated - base);
    inflated
  end

(* --------------------------------------------------------------- *)
(* Interrupt coalescing *)

let[@clic.hot] [@clic.atomic] assert_irq t =
  if t.down then ()
  else begin
  cancel_timer t.quiet_timer;
  cancel_timer t.abs_timer;
  t.quiet_timer <- None;
  t.abs_timer <- None;
  t.masked <- true;
  t.interrupts_raised <- t.interrupts_raised + 1;
  if !Probe.on then Probe.emit (Probe.Irq { host = t.name });
  match t.irq_handler with
  | Some handler -> handler ()
  | None -> ()
  end

let[@clic.hot] timer_fired t =
  if (not t.masked) && not (Queue.is_empty t.pending) then assert_irq t

(* The quiet timer is lazy: each frame only stores the new deadline
   ([now + quiet] — monotone, since the clock never goes backwards) and a
   single in-flight event re-arms itself until it fires at the stored
   deadline.  A burst of N frames costs N field writes plus O(1) heap
   operations instead of N cancel+schedule pairs, and the IRQ still
   asserts at exactly the instant the eager implementation chose: the
   in-flight event can only be scheduled at or before the deadline. *)
let rec quiet_fired t () =
  t.quiet_timer <- None;
  if not t.down then begin
    let now = Sim.now t.sim in
    if now >= t.quiet_deadline then timer_fired t
    else
      t.quiet_timer <-
        Some
          (Sim.schedule t.sim ~after:(t.quiet_deadline - now) (quiet_fired t))
  end

let[@clic.hot] evaluate_coalescing t =
  if not t.masked then begin
    if Queue.length t.pending >= t.coalesce.max_frames then assert_irq t
    else begin
      t.quiet_deadline <- Sim.now t.sim + t.coalesce.quiet;
      if t.quiet_timer = None then
        t.quiet_timer <-
          (Some (Sim.schedule t.sim ~after:t.coalesce.quiet (quiet_fired t))
          [@clic.alloc_ok
            "lazy timer arm: once per quiet period, not per frame: a \
             burst re-uses the in-flight event and only writes the \
             deadline field"]);
      if t.abs_timer = None then
        t.abs_timer <-
          (Some (Sim.schedule t.sim ~after:t.coalesce.absolute (fun () ->
                     timer_fired t))
          [@clic.alloc_ok
            "absolute-deadline backstop: armed once per coalescing window, \
             amortized across max_frames frames"])
    end
  end

(* --------------------------------------------------------------- *)
(* 802.3x PAUSE: honouring received MAC-control frames *)

let link_rate t =
  match t.uplink with Some link -> Link.bits_per_s link | None -> 1e9

let pause_resume t =
  if t.tx_paused then begin
    t.tx_paused <- false;
    cancel_timer t.pause_resume;
    t.pause_resume <- None;
    let now = Sim.now t.sim in
    t.tx_paused_acc <- t.tx_paused_acc + (now - t.pause_started);
    if !Probe.on then begin
      Probe.emit (Probe.Pause_state { host = t.name; paused = false });
      Probe.emit
        (Probe.Span
           {
             host = t.name;
             track = Probe.Pause_t;
             label = "paused";
             start = t.pause_started;
             finish = now;
           })
    end;
    (* Swap before filling: a waiter that immediately re-pauses must get a
       fresh ivar to block on. *)
    let wake = t.pause_wake in
    t.pause_wake <- Ivar.create ();
    Ivar.fill wake ()
  end

let pause_enter t ~quanta =
  cancel_timer t.pause_resume;
  t.pause_resume <- None;
  if quanta = 0 then pause_resume t
  else begin
    if not t.tx_paused then begin
      t.tx_paused <- true;
      t.pause_started <- Sim.now t.sim;
      if !Probe.on then
        Probe.emit (Probe.Pause_state { host = t.name; paused = true })
    end;
    let span = Mac_control.span_of_quanta ~bits_per_s:(link_rate t) quanta in
    t.pause_resume <-
      Some (Sim.schedule t.sim ~after:span (fun () -> pause_resume t))
  end

let on_pause_frame t ~quanta =
  t.pause_frames_rx <- t.pause_frames_rx + 1;
  if !Probe.on then
    Probe.emit (Probe.Pause_frame { host = t.name; sent = false; quanta });
  match t.pause with
  | Some p when p.honor -> pause_enter t ~quanta
  | _ -> ()

(* Receive-side PAUSE generation (optional, [gen_high] > 0): XOFF the link
   partner when the rx ring backs up, XON once the host drains it.  The
   frame originates in the MAC, bypassing the transmit pipeline. *)
let send_pause_frame t ~quanta =
  match t.uplink with
  | Some link when not t.down ->
      t.pause_frames_tx <- t.pause_frames_tx + 1;
      if !Probe.on then
        Probe.emit (Probe.Pause_frame { host = t.name; sent = true; quanta });
      Link.send link (Mac_control.pause ~src:Mac.flow_control ~quanta)
  | _ -> ()

let[@clic.hot] gen_pause_check_high t =
  match t.pause with
  | Some p
    when p.gen_high > 0 && (not t.gen_xoff_sent)
         && Queue.length t.pending >= p.gen_high ->
      t.gen_xoff_sent <- true;
      send_pause_frame t ~quanta:p.gen_quanta
  | _ -> ()

let[@clic.hot] gen_pause_check_low t =
  match t.pause with
  | Some p when t.gen_xoff_sent && Queue.length t.pending <= p.gen_low ->
      t.gen_xoff_sent <- false;
      send_pause_frame t ~quanta:0
  | _ -> ()

(* --------------------------------------------------------------- *)
(* Transmit pipeline *)

let wire_frames t (frame : Eth_frame.t) =
  if frame.payload_bytes <= t.mtu then [ frame ]
  else begin
    let total = frame.payload_bytes in
    let count = (total + t.mtu - 1) / t.mtu in
    let packet_id = t.next_packet_id in
    t.next_packet_id <- t.next_packet_id + 1;
    List.init count (fun index ->
        let bytes =
          if index = count - 1 then total - (index * t.mtu) else t.mtu
        in
        Eth_frame.make ~src:frame.src ~dst:frame.dst
          ~ethertype:frame.ethertype ~payload_bytes:bytes
          ~frag:{ packet_id; index; count; packet_bytes = total }
          frame.payload)
  end

(* The transmit path is a two-stage pipeline, as in real NICs: the DMA
   engine fetches descriptor n+1 while the MAC/firmware stage is still
   pushing descriptor n onto the wire.  A small FIFO (in packets) couples
   the stages. *)
let tx_dma_pump t () =
  let rec loop () =
    let desc = Mailbox.recv t.tx_queue in
    let frame = desc.frame in
    let host_bytes = Eth_frame.header_bytes + frame.payload_bytes in
    if desc.needs_dma then Dma.transfer ~pci:t.pci ~membus:t.membus host_bytes;
    Semaphore.acquire t.phy_slots;
    Mailbox.send t.phy_queue desc;
    loop ()
  in
  loop ()

let tx_phy_pump t () =
  let rec loop () =
    let desc = Mailbox.recv t.phy_queue in
    let frame = desc.frame in
    let host_bytes = Eth_frame.header_bytes + frame.payload_bytes in
    if desc.internal_copy then
      Process.delay (service_span t (internal_move_time t host_bytes));
    let frames = wire_frames t frame in
    List.iter
      (fun f ->
        Process.delay (service_span t t.firmware_per_frame);
        (* A powered-off NIC cannot reach the wire, but completion still
           runs so the posted buffer is released through the normal path. *)
        match t.uplink with
        | Some link when not t.down -> (
            match t.pause with
            | None -> Link.send link f
            | Some _ ->
                (* Flow-controlled MAC: hold the frame while PAUSEd, and
                   respect uplink backpressure instead of blind-dumping
                   into a full switch FIFO.  Both conditions re-check
                   after every wake — a resume can race a new XOFF. *)
                while t.tx_paused || not (Link.has_room link) do
                  if t.tx_paused then Ivar.read t.pause_wake
                  else Link.wait_room link
                done;
                if not t.down then begin
                  if !Probe.on then
                    Probe.emit (Probe.Tx_wire { host = t.name });
                  Link.send link f
                end)
        | Some _ | None -> ())
      frames;
    t.tx_packets <- t.tx_packets + 1;
    Semaphore.release t.phy_slots;
    Semaphore.release t.tx_slots;
    desc.on_complete ();
    loop ()
  in
  loop ()

(* --------------------------------------------------------------- *)
(* Receive pipeline *)

let mac_key m = Mac.to_string m

let reassemble t (frame : Eth_frame.t) =
  match frame.frag with
  | None -> Some frame
  | Some frag ->
      let key = (mac_key frame.src, frag.packet_id) in
      let slot =
        match Hashtbl.find_opt t.reassembly key with
        | Some r -> r
        | None ->
            let r = { seen = 0; template = None; ce_any = false } in
            Hashtbl.add t.reassembly key r;
            r
      in
      slot.seen <- slot.seen + 1;
      slot.template <- Some frame;
      slot.ce_any <- slot.ce_any || frame.ce;
      if slot.seen = frag.count then begin
        Hashtbl.remove t.reassembly key;
        Some
          (Eth_frame.make ~src:frame.src ~dst:frame.dst
             ~ethertype:frame.ethertype ~payload_bytes:frag.packet_bytes
             ~ce:slot.ce_any frame.payload)
      end
      else None

let[@clic.hot] admit_host_bytes t bytes =
  match t.rx_admission with None -> true | Some admit -> admit ~bytes

let rx_pump t () =
  let rec loop () =
    let frame = Mailbox.recv t.rx_wire in
    Process.delay (service_span t t.firmware_per_frame);
    (if t.down then ()
     else if frame.Eth_frame.corrupted then
       (* The MAC recomputes the FCS over the damaged bits and discards
          the frame before it ever reaches the ring. *)
       t.bad_fcs <- t.bad_fcs + 1
     else
    match Mac_control.quanta_of frame with
    | Some quanta -> on_pause_frame t ~quanta
    | None ->
    match reassemble t frame with
    | None -> ()
    | Some packet ->
        if not (admit_host_bytes t (Eth_frame.buffer_bytes packet)) then
          (* Host kernel pool at its hard watermark: shed the frame here,
             with its own counted reason, rather than letting the
             allocation fail deeper in the stack.  Reliable senders
             retransmit. *)
          t.rx_dropped_mem <- t.rx_dropped_mem + 1
        else if Semaphore.try_acquire t.rx_slots then begin
          let host_bytes = Eth_frame.buffer_bytes packet in
          Dma.transfer ~pci:t.pci ~membus:t.membus host_bytes;
          if t.down then
            (* Power failed while the DMA was in flight: the ring this
               descriptor was headed for has already been drained, so
               landing it now would strand it there forever.  The slot we
               took must go back — power_off only released the slots that
               were in the ring at the instant it ran. *)
            Semaphore.release t.rx_slots
          else begin
          let rx_id = !next_rx_id in
          incr next_rx_id;
          if !Probe.on then
            Probe.emit
              (Probe.Obj_alloc
                 {
                   kind = Probe.Rx_buffer;
                   id = rx_id;
                   bytes = host_bytes;
                   owner = Probe.Nic;
                   where = "nic:rx-ring";
                 });
          Queue.add
            { rx_id; rx_frame = packet; host_bytes; arrived = Sim.now t.sim }
            t.pending;
          probe_ring_depth t;
          t.rx_packets <- t.rx_packets + 1;
          gen_pause_check_high t;
          evaluate_coalescing t
          end
        end
        else begin
          Log.warn (fun m ->
              m "%s: receive ring full, dropping %a" t.name Eth_frame.pp
                packet);
          t.rx_dropped <- t.rx_dropped + 1
        end);
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Power control (node crash / reboot) *)

let power_off t =
  if not t.down then begin
    t.down <- true;
    t.masked <- true;
    cancel_timer t.quiet_timer;
    cancel_timer t.abs_timer;
    t.quiet_timer <- None;
    t.abs_timer <- None;
    (* A powered-off MAC forgets its flow-control state. *)
    pause_resume t;
    t.gen_xoff_sent <- false;
    (* Ring contents vanish with the power: report each buffer freed so
       the lifecycle sanitizer sees the crash as a release, not a leak. *)
    Queue.iter
      (fun d ->
        if !Probe.on then
          Probe.emit
            (Probe.Obj_free
               { kind = Probe.Rx_buffer; id = d.rx_id; where = "nic:power-off" }))
      t.pending;
    let n = Queue.length t.pending in
    Queue.clear t.pending;
    if n > 0 then begin
      probe_ring_depth t;
      Semaphore.release ~n t.rx_slots
    end;
    Hashtbl.reset t.reassembly
  end

let power_on t =
  t.down <- false;
  t.masked <- false

(* --------------------------------------------------------------- *)

let create sim ~name ~mtu ~pci ~membus ?(tx_ring = 64) ?(rx_ring = 128)
    ?(coalesce = default_coalesce) ?(internal_bytes_per_s = 400e6)
    ?(firmware_per_frame = Time.ns 800) ?(fragmentation = false) ?pause () =
  if mtu <= 0 then invalid_arg "Nic.create: mtu <= 0";
  if coalesce.max_frames <= 0 then invalid_arg "Nic.create: max_frames <= 0";
  (match pause with
  | Some p ->
      if p.gen_high < 0 || p.gen_low < 0 || p.gen_low > p.gen_high then
        invalid_arg "Nic.create: pause generation watermarks out of order";
      if p.gen_quanta <= 0 || p.gen_quanta > Mac_control.max_quanta then
        invalid_arg "Nic.create: pause gen_quanta out of range"
  | None -> ());
  let t =
    {
      sim;
      name;
      mtu;
      pci;
      membus;
      coalesce;
      internal_bytes_per_s;
      firmware_per_frame;
      fragmentation;
      tx_slots = Semaphore.create tx_ring;
      tx_queue = Mailbox.create ();
      phy_queue = Mailbox.create ();
      phy_slots = Semaphore.create 2;
      next_packet_id = 0;
      uplink = None;
      rx_slots = Semaphore.create rx_ring;
      rx_wire = Mailbox.create ();
      pending = Queue.create ();
      reassembly = Hashtbl.create 16;
      irq_handler = None;
      masked = false;
      quiet_timer = None;
      quiet_deadline = 0;
      abs_timer = None;
      rx_admission = None;
      down = false;
      pause;
      tx_paused = false;
      pause_started = 0;
      pause_resume = None;
      pause_wake = Ivar.create ();
      gen_xoff_sent = false;
      slow_factor = 1.0;
      slow_extra_ns = 0;
      interrupts_raised = 0;
      tx_packets = 0;
      rx_packets = 0;
      rx_dropped = 0;
      rx_dropped_mem = 0;
      bad_fcs = 0;
      tx_paused_acc = 0;
      pause_frames_rx = 0;
      pause_frames_tx = 0;
    }
  in
  Process.spawn sim (tx_dma_pump t);
  Process.spawn sim (tx_phy_pump t);
  Process.spawn sim (rx_pump t);
  t

let attach_uplink t link =
  if t.uplink <> None then invalid_arg "Nic.attach_uplink: already attached";
  t.uplink <- Some link

let rx_from_wire t frame = if not t.down then Mailbox.send t.rx_wire frame

let set_rx_admission t admit =
  if t.rx_admission <> None then
    invalid_arg "Nic.set_rx_admission: already set";
  t.rx_admission <- Some admit

let set_interrupt t handler =
  if t.irq_handler <> None then invalid_arg "Nic.set_interrupt: already set";
  t.irq_handler <- Some handler

let check_tx_size t (desc : tx_desc) =
  if desc.frame.payload_bytes > t.mtu && not t.fragmentation then
    invalid_arg
      (Printf.sprintf
         "Nic.post_tx (%s): payload %dB exceeds MTU %d and fragmentation is \
          off"
         t.name desc.frame.payload_bytes t.mtu)

let try_post_tx t desc =
  check_tx_size t desc;
  if Semaphore.try_acquire t.tx_slots then begin
    Mailbox.send t.tx_queue desc;
    true
  end
  else false

let post_tx_blocking t desc =
  check_tx_size t desc;
  Semaphore.acquire t.tx_slots;
  Mailbox.send t.tx_queue desc

let take_rx t =
  let out = ref [] in
  Queue.iter (fun d -> out := d :: !out) t.pending;
  let n = Queue.length t.pending in
  Queue.clear t.pending;
  if n > 0 then probe_ring_depth t;
  Semaphore.release ~n t.rx_slots;
  gen_pause_check_low t;
  List.rev !out

let take_rx_budget t budget =
  if budget <= 0 then invalid_arg "Nic.take_rx_budget: budget <= 0";
  let out = ref [] in
  let n = ref 0 in
  while !n < budget && not (Queue.is_empty t.pending) do
    out := Queue.pop t.pending :: !out;
    incr n
  done;
  if !n > 0 then begin
    probe_ring_depth t;
    Semaphore.release ~n:!n t.rx_slots
  end;
  gen_pause_check_low t;
  List.rev !out

let unmask_irq t =
  if not t.down then begin
    t.masked <- false;
    if not (Queue.is_empty t.pending) then evaluate_coalescing t
  end

let name t = t.name
let mtu t = t.mtu
let pci t = t.pci
let is_down t = t.down
let interrupts_raised t = t.interrupts_raised
let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let rx_dropped t = t.rx_dropped
let rx_dropped_mem t = t.rx_dropped_mem
let bad_fcs t = t.bad_fcs
let tx_ring_free t = Semaphore.available t.tx_slots
let rx_pending t = Queue.length t.pending
let is_tx_paused t = t.tx_paused

let tx_paused_ns t =
  t.tx_paused_acc
  + if t.tx_paused then Sim.now t.sim - t.pause_started else 0

let pause_frames_rx t = t.pause_frames_rx
let pause_frames_tx t = t.pause_frames_tx

let set_slow_factor t factor =
  if factor < 1.0 then invalid_arg "Nic.set_slow_factor: factor < 1";
  if factor <> t.slow_factor then begin
    t.slow_factor <- factor;
    if !Probe.on then
      Probe.emit
        (Probe.Gray_fault
           { host = t.name; mode = "nic-slow"; active = factor > 1.0 })
  end

let slow_factor t = t.slow_factor
let slow_extra_ns t = t.slow_extra_ns
