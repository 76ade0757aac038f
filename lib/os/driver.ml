open Engine
open Hw

type rx_mode = Via_bottom_half | Direct_from_isr

type params = {
  tx_routine : Time.span;
  isr_entry : Time.span;
  isr_per_packet : Time.span;
  bh_per_packet : Time.span;
  bh_bytes_per_s : float;
  rx_mode : rx_mode;
  napi : bool;
  napi_enter_gap : Time.span;
  napi_enter_after : int;
  napi_budget : int;
  napi_interval : Time.span;
}

let default_params =
  {
    tx_routine = Time.us 4.0;
    isr_entry = Time.us 1.5;
    isr_per_packet = Time.us 2.5;
    bh_per_packet = Time.us 4.0;
    bh_bytes_per_s = 180e6;
    rx_mode = Via_bottom_half;
    napi = false;
    napi_enter_gap = Time.us 20.;
    napi_enter_after = 4;
    napi_budget = 16;
    napi_interval = Time.us 15.;
  }

(* The driver's receive routine touches every byte it hands upward (the
   SK_BUFF build-and-move the paper's Figure 8a describes): 1400 bytes at
   the default rate plus the per-packet cost reproduce the 15 us
   bottom-half stage of Figure 7a. *)
let rx_packet_cost params (desc : Hw.Nic.rx_desc) =
  params.bh_per_packet
  + Time.of_bytes_at_rate ~bytes_per_s:params.bh_bytes_per_s
      desc.Hw.Nic.host_bytes

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  bh : Bottom_half.t;
  nic : Nic.t;
  params : params;
  mutable rx_upcall : (Nic.rx_desc -> unit) option;
  mutable rx_upcalls : int;
  (* receiver-livelock mitigation (NAPI-style polling) *)
  mutable polling : bool;
  mutable hot_irqs : int;  (* consecutive interrupts closer than the gap *)
  mutable last_irq : Time.t option;
  mutable poll_mode_switches : int;
  mutable poll_passes : int;
  mutable polled_packets : int;
  (* node crash support *)
  mutable dead : bool;
}

let deliver_one t desc =
  t.rx_upcalls <- t.rx_upcalls + 1;
  (match t.rx_upcall with Some f -> f desc | None -> ());
  (* The upcall has consumed the ring buffer's contents; its slot was
     already recycled by [Nic.take_rx], so the buffer's life ends here. *)
  if !Probe.on then
    Probe.emit
      (Probe.Obj_free
         { kind = Probe.Rx_buffer; id = desc.Nic.rx_id; where = "driver:rx-upcall" })

(* A crashed driver owns buffers already pulled from the ring (queued for
   the bottom half): they are discarded, each with a visible release so the
   lifecycle sanitizer balances. *)
let discard_one desc =
  if !Probe.on then
    Probe.emit
      (Probe.Obj_free
         {
           kind = Probe.Rx_buffer;
           id = desc.Nic.rx_id;
           where = "driver:dead-discard";
         })

let transfer_rx desc owner ~where =
  if !Probe.on then
    Probe.emit
      (Probe.Obj_transfer
         { kind = Probe.Rx_buffer; id = desc.Nic.rx_id; owner; where })

let probe_poll_mode t polling =
  if !Probe.on then
    Probe.emit (Probe.Rx_poll_mode { host = Nic.name t.nic; polling })

let exit_polling t =
  t.polling <- false;
  t.hot_irqs <- 0;
  t.last_irq <- None;
  t.poll_mode_switches <- t.poll_mode_switches + 1;
  probe_poll_mode t false;
  Nic.unmask_irq t.nic

(* One budgeted pass of the polling loop.  Each packet is charged the same
   work it would have cost on the interrupt path (ring walk + receive
   routine), but without the per-interrupt entry cost — that is the whole
   saving.  A pass that comes back under budget means the ring drained:
   interrupts are re-enabled (the hysteresis against bouncing straight
   back is the consecutive-hot-interrupt count required to re-enter). *)
let rec poll_loop t () =
  if t.dead then ()
  else begin
    let descs = Nic.take_rx_budget t.nic t.params.napi_budget in
    let n = List.length descs in
    t.poll_passes <- t.poll_passes + 1;
    t.polled_packets <- t.polled_packets + n;
    if n > 0 then
      Cpu.traced t.cpu Probe.Stage.Poll (fun () ->
          List.iter
            (fun desc ->
              transfer_rx desc Probe.Bh ~where:"driver:poll";
              Cpu.work ~priority:`High t.cpu
                (t.params.isr_per_packet + rx_packet_cost t.params desc);
              deliver_one t desc)
            descs);
    if !Probe.on then
      Probe.emit
        (Probe.Poll_pass
           { host = Nic.name t.nic; processed = n;
             budget = t.params.napi_budget });
    if t.dead then ()
    else if n < t.params.napi_budget then exit_polling t
    else begin
      Process.delay t.params.napi_interval;
      poll_loop t ()
    end
  end

let enter_polling t =
  t.polling <- true;
  t.hot_irqs <- 0;
  t.poll_mode_switches <- t.poll_mode_switches + 1;
  probe_poll_mode t true;
  (* The NIC interrupt stays masked (asserting it masked it); the loop
     runs as a kernel thread until the ring drains. *)
  Process.spawn t.sim (poll_loop t)

(* Track the interrupt arrival rate: interrupts closer together than
   [napi_enter_gap], [napi_enter_after] times in a row, is the livelock
   signature that flips the driver into polling. *)
let note_irq_rate t =
  let now = Sim.now t.sim in
  (match t.last_irq with
  | Some prev when Time.diff now prev <= t.params.napi_enter_gap ->
      t.hot_irqs <- t.hot_irqs + 1
  | _ -> t.hot_irqs <- 1);
  t.last_irq <- Some now;
  t.params.napi && t.hot_irqs >= t.params.napi_enter_after

(* The interrupt service routine: drain the ring, do the per-packet driver
   work, hand the batch to the protocol (via bottom half or directly), then
   re-enable the NIC interrupt. *)
let[@clic.atomic] isr t () =
  if t.dead then ()
  else if note_irq_rate t && not t.polling then
    Cpu.traced t.cpu Probe.Stage.Isr (fun () ->
        Cpu.work ~priority:`High t.cpu t.params.isr_entry;
        enter_polling t)
  else
  Cpu.traced t.cpu Probe.Stage.Isr (fun () ->
      Cpu.work ~priority:`High t.cpu t.params.isr_entry;
      let descs = Nic.take_rx t.nic in
      List.iter
        (fun desc ->
          Cpu.work ~priority:`High t.cpu t.params.isr_per_packet;
          transfer_rx desc Probe.Driver ~where:"driver:isr")
        descs;
      (match t.params.rx_mode with
      | Direct_from_isr ->
          List.iter
            (fun desc ->
              Cpu.work ~priority:`High t.cpu (rx_packet_cost t.params desc);
              deliver_one t desc)
            descs
      | Via_bottom_half ->
          if descs <> [] then
            Bottom_half.schedule t.bh (fun () ->
                if t.dead then List.iter discard_one descs
                else
                  Cpu.traced t.cpu Probe.Stage.Bottom_half (fun () ->
                      List.iter
                        (fun desc ->
                          transfer_rx desc Probe.Bh
                            ~where:"driver:bottom-half";
                          Cpu.work ~priority:`High t.cpu
                            (rx_packet_cost t.params desc);
                          deliver_one t desc)
                        descs)));
      Nic.unmask_irq t.nic)

let create sim ~cpu ~intr ~bh ~nic ?(params = default_params) () =
  if params.napi then begin
    if params.napi_budget <= 0 then
      invalid_arg "Driver.create: napi_budget <= 0";
    if params.napi_enter_after <= 0 then
      invalid_arg "Driver.create: napi_enter_after <= 0"
  end;
  let t =
    {
      sim;
      cpu;
      bh;
      nic;
      params;
      rx_upcall = None;
      rx_upcalls = 0;
      polling = false;
      hot_irqs = 0;
      last_irq = None;
      poll_mode_switches = 0;
      poll_passes = 0;
      polled_packets = 0;
      dead = false;
    }
  in
  Nic.set_interrupt nic (fun () -> Interrupt.raise_irq intr ~isr:(isr t));
  t

let kill t =
  if not t.dead then begin
    t.dead <- true;
    if t.polling then begin
      t.polling <- false;
      probe_poll_mode t false
    end
  end

let set_rx_upcall t f =
  if t.rx_upcall <> None then invalid_arg "Driver.set_rx_upcall: already set";
  t.rx_upcall <- Some f

let transmit t ~skb ~dst ~src ~ethertype ~payload ?(internal_copy = true)
    ~on_complete () =
  Skbuff.transfer skb Probe.Driver ~where:"driver:tx-routine";
  Cpu.traced t.cpu Probe.Stage.Driver_tx (fun () ->
      Cpu.work t.cpu t.params.tx_routine);
  let frame =
    Eth_frame.make ~src ~dst ~ethertype
      ~payload_bytes:(Skbuff.total_bytes skb)
      payload
  in
  Nic.try_post_tx t.nic { Nic.frame; needs_dma = true; internal_copy; on_complete }

let nic t = t.nic
let params t = t.params
let rx_upcalls t = t.rx_upcalls
let is_polling t = t.polling
let poll_mode_switches t = t.poll_mode_switches
let poll_passes t = t.poll_passes
let polled_packets t = t.polled_packets
