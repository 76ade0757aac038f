open Engine
open Os_model
open Hw

type params = { tx_cost : Time.span; rx_cost : Time.span }

let default_params = { tx_cost = Time.us 1.5; rx_cost = Time.us 2.0 }

type reasm = {
  mutable seen : int;
  mutable bytes : int;
  mutable last : Packet.ip_packet option;
}

type t = {
  eth : Ethernet.t;
  params : params;
  mutable tcp_handler : (Packet.tcp_segment -> src:int -> unit) option;
  mutable udp_handler : (Packet.udp_datagram -> src:int -> unit) option;
  mutable next_ip_id : int;
  reassembly : (int * int, reasm) Hashtbl.t;
  mutable packets_sent : int;
}

let cpu t = (Ethernet.env t.eth).Hostenv.cpu
let mtu t = Nic.mtu (Driver.nic (Ethernet.env t.eth).Hostenv.driver)

let deliver t (pkt : Packet.ip_packet) =
  match pkt.ip_payload with
  | Packet.Tcp seg -> (
      match t.tcp_handler with
      | Some h -> h seg ~src:pkt.ip_src
      | None -> ())
  | Packet.Udp d -> (
      match t.udp_handler with
      | Some h -> h d ~src:pkt.ip_src
      | None -> ())

(* Receive runs in the driver upcall (interrupt) context. *)
let rx t (desc : Nic.rx_desc) =
  match desc.Nic.rx_frame.Eth_frame.payload with
  | Packet.Ip pkt -> (
      Cpu.work ~priority:`High (cpu t) t.params.rx_cost;
      match pkt.ip_frag with
      | None -> deliver t pkt
      | Some frag ->
          let key = (pkt.ip_src, frag.ip_id) in
          let slot =
            match Hashtbl.find_opt t.reassembly key with
            | Some s -> s
            | None ->
                let s = { seen = 0; bytes = 0; last = None } in
                Hashtbl.add t.reassembly key s;
                s
          in
          slot.seen <- slot.seen + 1;
          slot.bytes <- slot.bytes + pkt.ip_bytes;
          slot.last <- Some pkt;
          if slot.seen = frag.frag_count then begin
            Hashtbl.remove t.reassembly key;
            deliver t { pkt with ip_bytes = slot.bytes; ip_frag = None }
          end)
  | _ -> ()

let create eth ?(params = default_params) () =
  let t =
    {
      eth;
      params;
      tcp_handler = None;
      udp_handler = None;
      next_ip_id = 0;
      reassembly = Hashtbl.create 16;
      packets_sent = 0;
    }
  in
  Ethernet.register eth ~ethertype:Packet.ethertype_ip (rx t);
  t

let register_tcp t h =
  if t.tcp_handler <> None then invalid_arg "Ip.register_tcp: already set";
  t.tcp_handler <- Some h

let register_udp t h =
  if t.udp_handler <> None then invalid_arg "Ip.register_udp: already set";
  t.udp_handler <- Some h

(* A fragment carries [bytes] of the L4 unit (whose own header counts as
   part of the first fragment's data) plus a fresh IP header. *)
let fragment_skb skb bytes =
  let region =
    if Skbuff.is_zero_copy skb then Skbuff.User_memory
    else Skbuff.Kernel_memory
  in
  Skbuff.create ~header_bytes:Packet.ip_header_bytes
    [ { Skbuff.region; bytes } ]

let send t ~dst ~skb payload =
  let env = Ethernet.env t.eth in
  let src = env.Hostenv.node in
  let l4_bytes = Packet.ip_payload_wire_bytes payload in
  let max_payload = mtu t - Packet.ip_header_bytes in
  Cpu.work (cpu t) t.params.tx_cost;
  let emit ?frag bytes skb' =
    let pkt =
      { Packet.ip_src = src; ip_dst = dst; ip_payload = payload;
        ip_bytes = bytes; ip_frag = frag }
    in
    t.packets_sent <- t.packets_sent + 1;
    Ethernet.send t.eth ~dst:(Mac.of_node dst) ~ethertype:Packet.ethertype_ip
      ~skb:skb' ~payload:(Packet.Ip pkt) ()
  in
  (if l4_bytes <= max_payload then
     emit l4_bytes
       (Skbuff.create
          ~header_bytes:(Packet.ip_header_bytes + skb.Skbuff.header_bytes)
          skb.Skbuff.fragments)
   else begin
     let count = (l4_bytes + max_payload - 1) / max_payload in
     let ip_id = t.next_ip_id in
     t.next_ip_id <- t.next_ip_id + 1;
     for index = 0 to count - 1 do
       let bytes =
         if index = count - 1 then l4_bytes - (index * max_payload)
         else max_payload
       in
       emit ~frag:{ Packet.ip_id; frag_index = index; frag_count = count }
         bytes (fragment_skb skb bytes)
     done
   end);
  (* Encapsulation re-wraps the fragments under fresh IP-framed buffers;
     the caller's L4 buffer is dead from here on. *)
  Skbuff.release skb ~where:"ip:encap"

let packets_sent t = t.packets_sent
let reassembly_pending t = Hashtbl.length t.reassembly
let ethernet t = t.eth
