(** Wire formats of the TCP/IP suite, as carried in Ethernet frames.

    Only metadata travels: sizes, sequence numbers, ports.  Payload bytes
    are modelled by their counts (the simulation charges the costs of
    moving and checksumming them); application layers that need to identify
    a message attach an {!app} value, an extensible variant each layer
    extends with its own constructor. *)

type app = ..
(** Application payload descriptors; [No_app] when none. *)

type app += No_app

(** {1 TCP} *)

type tcp_flags = { syn : bool; fin : bool; ack : bool }

val data_flags : tcp_flags
(** Plain data-bearing segment (ACK set, as on any established segment). *)

val syn_flags : tcp_flags
val synack_flags : tcp_flags
val ack_flags : tcp_flags

type tcp_segment = {
  src_port : int;
  dst_port : int;
  seq : int;  (** first data byte carried, per direction, starting at 0 *)
  ack_seq : int;  (** next byte expected from the peer *)
  data_bytes : int;
  flags : tcp_flags;
  window : int;  (** advertised receive window, bytes *)
}

val tcp_header_bytes : int
(** 20 *)

(** {1 UDP} *)

type udp_datagram = {
  udp_src_port : int;
  udp_dst_port : int;
  udp_bytes : int;  (** payload size *)
  udp_app : app;
}

val udp_header_bytes : int
(** 8 *)

(** {1 IP} *)

type ip_proto = Tcp of tcp_segment | Udp of udp_datagram

type ip_frag = { ip_id : int; frag_index : int; frag_count : int }

type ip_packet = {
  ip_src : int;  (** node ids stand in for addresses *)
  ip_dst : int;
  ip_payload : ip_proto;
  ip_bytes : int;  (** L4 bytes carried by {e this} packet (fragment) *)
  ip_frag : ip_frag option;
}

val ip_header_bytes : int
(** 20 *)

val ethertype_ip : int
(** 0x0800 *)

type Hw.Eth_frame.payload += Ip of ip_packet

(** {1 Sizing helpers} *)

val ip_payload_wire_bytes : ip_proto -> int
