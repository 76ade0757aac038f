open Engine
open Os_model
open Hw
open Proto

let ethertype = 0x8875
let lightweight_syscall = Time.us 0.2
let header_bytes = 8

let driver_params =
  {
    Driver.default_params with
    Driver.tx_routine = Time.us 1.5;
    isr_entry = Time.us 1.0;
    isr_per_packet = Time.us 1.0;
    bh_per_packet = Time.us 0.5;
    bh_bytes_per_s = 2e9;
    rx_mode = Driver.Direct_from_isr;
  }

(* GAMMA's flow control, expressed through CLIC's channel machinery with a
   tight window, fast acknowledgements and GAMMA's 8-byte header. *)
let channel_params =
  {
    Clic.Params.default with
    header_bytes;
    ack_every = 4;
    ack_timeout = Time.us 50.;
    tx_window = 32;
  }

type message = { gm_src : int; gm_port : int; gm_bytes : int }

(* GAMMA frames carry the channel's sequenced packets directly; the
   distinct ethertype keeps the two protocols apart on shared wires. *)
type Eth_frame.payload += Gamma of Clic.Wire.packet

type reasm = { mutable seen : int }

type t = {
  env : Hostenv.t;
  eth : Ethernet.t;
  handlers : (int, message -> unit) Hashtbl.t;
  inboxes : (int, message Mailbox.t) Hashtbl.t;
  channels : (int, Clic.Channel.t) Hashtbl.t;
  reassembly : (int * int, reasm) Hashtbl.t;
  mutable next_msg : int;
}

let cpu t = t.env.Hostenv.cpu
let sim t = t.env.Hostenv.sim
let node t = t.env.Hostenv.node

let payload_per_packet t =
  Nic.mtu (Driver.nic (Ethernet.env t.eth).Hostenv.driver) - header_bytes

(* Hand one wire packet to GAMMA's own driver: a bare zero-copy
   descriptor, blocking on ring space (GAMMA has no kernel staging). *)
let transmit t ~dst (pkt : Clic.Wire.packet) =
  let driver = (Ethernet.env t.eth).Hostenv.driver in
  let skb = Skbuff.of_user ~header_bytes pkt.Clic.Wire.data_bytes in
  let on_complete () = Skbuff.release skb ~where:"gamma:tx-complete" in
  let posted =
    Driver.transmit driver ~skb ~dst:(Mac.of_node dst)
      ~src:(Mac.of_node (node t)) ~ethertype ~payload:(Gamma pkt)
      ~internal_copy:false ~on_complete ()
  in
  if not posted then begin
    let frame =
      Eth_frame.make ~src:(Mac.of_node (node t)) ~dst:(Mac.of_node dst)
        ~ethertype
        ~payload_bytes:(Skbuff.total_bytes skb)
        (Gamma pkt)
    in
    Nic.post_tx_blocking (Driver.nic driver)
      { Nic.frame; needs_dma = true; internal_copy = false; on_complete }
  end

(* In-order delivery from the channel (interrupt context): each fragment
   is written straight into the destination process's memory, and the
   active handler fires when the message is complete. *)
let rec get_channel t peer =
  match Hashtbl.find_opt t.channels peer with
  | Some c -> c
  | None ->
      let chan =
        Clic.Channel.create (sim t) ~self:(node t) ~peer
          ~params:channel_params
          ~transmit:(fun pkt ~retransmission:_ -> transmit t ~dst:peer pkt)
          ~deliver:(fun pkt -> deliver t pkt)
          ~send_ack:(fun ~cum_seq ~sacks:_ ~ce_echo:_ ->
            Cpu.work (cpu t) (Time.us 0.5);
            transmit t ~dst:peer
              { Clic.Wire.src = node t; epoch = 0; chan_seq = None;
                data_bytes = 0; ce = false;
                kind =
                  Clic.Wire.Chan_ack
                    { cum_seq;
                      window = channel_params.Clic.Params.tx_window;
                      ce_echo = false; sacks = [] } })
          ()
      in
      Hashtbl.add t.channels peer chan;
      chan

and deliver t (pkt : Clic.Wire.packet) =
  match pkt.Clic.Wire.kind with
  | Clic.Wire.Data { port; frag; _ } ->
      if pkt.Clic.Wire.data_bytes > 0 then
        Cpu.copy ~priority:`High (cpu t) ~membus:t.env.Hostenv.membus
          pkt.Clic.Wire.data_bytes;
      let key = (pkt.Clic.Wire.src, frag.Clic.Wire.msg_id) in
      let slot =
        match Hashtbl.find_opt t.reassembly key with
        | Some s -> s
        | None ->
            let s = { seen = 0 } in
            Hashtbl.add t.reassembly key s;
            s
      in
      slot.seen <- slot.seen + 1;
      if slot.seen = frag.Clic.Wire.frag_count then begin
        Hashtbl.remove t.reassembly key;
        match Hashtbl.find_opt t.handlers port with
        | Some h ->
            h
              { gm_src = pkt.Clic.Wire.src; gm_port = port;
                gm_bytes = frag.Clic.Wire.msg_bytes }
        | None -> ()
      end
  | _ -> ()

let rx t (desc : Nic.rx_desc) =
  match desc.Nic.rx_frame.Eth_frame.payload with
  | Gamma pkt -> (
      Cpu.work ~priority:`High (cpu t) (Time.us 1.0);
      match pkt.Clic.Wire.kind with
      | Clic.Wire.Chan_ack { cum_seq; _ } ->
          Clic.Channel.rx_ack (get_channel t pkt.Clic.Wire.src) cum_seq
      | _ -> Clic.Channel.rx (get_channel t pkt.Clic.Wire.src) pkt)
  | _ -> ()

let create env eth =
  let t =
    {
      env;
      eth;
      handlers = Hashtbl.create 8;
      inboxes = Hashtbl.create 8;
      channels = Hashtbl.create 8;
      reassembly = Hashtbl.create 8;
      next_msg = 0;
    }
  in
  Ethernet.register eth ~ethertype (rx t);
  t

let bind_port t ~port handler =
  if Hashtbl.mem t.handlers port then
    invalid_arg (Printf.sprintf "Gamma.bind_port: port %d taken" port);
  Hashtbl.add t.handlers port handler

let send t ~dst ~port n =
  if n < 0 then invalid_arg "Gamma.send: negative size";
  Cpu.work (cpu t) lightweight_syscall;
  let msg_id = t.next_msg in
  t.next_msg <- t.next_msg + 1;
  let chunk = payload_per_packet t in
  let count = max 1 ((n + chunk - 1) / chunk) in
  let chan = get_channel t dst in
  for index = 0 to count - 1 do
    let bytes = if index = count - 1 then n - (index * chunk) else chunk in
    Cpu.work (cpu t) (Time.us 0.5);
    let pkt =
      Clic.Channel.next_seq chan ~data_bytes:bytes
        (Clic.Wire.Data
           { port; sync = false;
             frag =
               { Clic.Wire.msg_id; frag_index = index; frag_count = count;
                 msg_bytes = n } })
    in
    transmit t ~dst pkt
  done

let recv t ~port =
  let box =
    match Hashtbl.find_opt t.inboxes port with
    | Some box -> box
    | None ->
        let box = Mailbox.create () in
        Hashtbl.add t.inboxes port box;
        bind_port t ~port (fun m -> Mailbox.send box m);
        box
  in
  Cpu.work (cpu t) lightweight_syscall;
  Mailbox.recv box
