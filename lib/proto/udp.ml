open Engine
open Os_model

type params = {
  tx_cost : Time.span;
  rx_cost : Time.span;
  checksum_bytes_per_s : float;
}

let default_params =
  { tx_cost = Time.us 4.0; rx_cost = Time.us 5.0;
    checksum_bytes_per_s = 150e6 }

type t = {
  ip : Ip.t;
  params : params;
  handlers : (int, Packet.udp_datagram -> src:int -> unit) Hashtbl.t;
  mutable sent : int;
  mutable unbound : int;
}

let env t = Ethernet.env (Ip.ethernet t.ip)
let cpu t = (env t).Hostenv.cpu

let checksum_time t bytes =
  Time.of_bytes_at_rate ~bytes_per_s:t.params.checksum_bytes_per_s bytes

let rx t (d : Packet.udp_datagram) ~src =
  Cpu.work ~priority:`High (cpu t) t.params.rx_cost;
  Cpu.work ~priority:`High (cpu t) (checksum_time t d.Packet.udp_bytes);
  match Hashtbl.find_opt t.handlers d.Packet.udp_dst_port with
  | Some h -> h d ~src
  | None -> t.unbound <- t.unbound + 1

let create ip ?(params = default_params) () =
  let t =
    { ip; params; handlers = Hashtbl.create 8; sent = 0; unbound = 0 }
  in
  Ip.register_udp ip (rx t);
  t

let bind t ~port handler =
  if Hashtbl.mem t.handlers port then
    invalid_arg (Printf.sprintf "Udp.bind: port %d taken" port);
  Hashtbl.add t.handlers port handler

let sendto t ~dst ~dst_port ?(src_port = 0) ~bytes ~app ?(zero_copy = false)
    () =
  if bytes < 0 then invalid_arg "Udp.sendto: negative size";
  let e = env t in
  Cpu.work (cpu t) t.params.tx_cost;
  Cpu.work (cpu t) (checksum_time t bytes);
  let skb =
    if zero_copy then Skbuff.of_user ~header_bytes:Packet.udp_header_bytes bytes
    else begin
      (* Stage through kernel memory: the standard UDP copy. *)
      Cpu.copy (cpu t) ~membus:e.Hostenv.membus bytes;
      Skbuff.of_kernel ~header_bytes:Packet.udp_header_bytes bytes
    end
  in
  t.sent <- t.sent + 1;
  Ip.send t.ip ~dst ~skb
    (Packet.Udp
       { Packet.udp_src_port = src_port; udp_dst_port = dst_port;
         udp_bytes = bytes; udp_app = app })

let datagrams_sent t = t.sent
let unbound_drops t = t.unbound
