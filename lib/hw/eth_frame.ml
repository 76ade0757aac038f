type frag = {
  packet_id : int;
  index : int;
  count : int;
  packet_bytes : int;
}

type payload = ..
type payload += Raw of int

type t = {
  src : Mac.t;
  dst : Mac.t;
  ethertype : int;
  payload_bytes : int;
  payload : payload;
  frag : frag option;
  corrupted : bool;
  ce : bool;  (* congestion experienced, set by ECN-marking switches *)
}

let header_bytes = 14
let crc_bytes = 4
let preamble_bytes = 8
let ifg_bytes = 12
let min_payload = 46
let standard_mtu = 1500
let jumbo_mtu = 9000
let ethertype_mac_control = 0x8808

let make ~src ~dst ~ethertype ~payload_bytes ?frag ?(corrupted = false)
    ?(ce = false) payload =
  if payload_bytes < 0 then invalid_arg "Eth_frame.make: negative payload";
  { src; dst; ethertype; payload_bytes; payload; frag; corrupted; ce }

let filler =
  make ~src:Mac.broadcast ~dst:Mac.broadcast ~ethertype:0 ~payload_bytes:0
    (Raw 0)

let padded_payload t = max t.payload_bytes min_payload

let on_wire_bytes t =
  preamble_bytes + header_bytes + padded_payload t + crc_bytes + ifg_bytes

let buffer_bytes t = header_bytes + padded_payload t + crc_bytes

let pp fmt t =
  Format.fprintf fmt "frame[%a->%a type=%#x %dB%s]" Mac.pp t.src Mac.pp t.dst
    t.ethertype t.payload_bytes
    (match t.frag with
    | None -> ""
    | Some f -> Printf.sprintf " frag %d/%d of pkt %d" (f.index + 1) f.count
                  f.packet_id)
