(** The IP layer of the baseline stack.

    CLIC's whole argument is that this layer (and TCP above it) is overhead
    a cluster does not need; we implement it faithfully enough to charge
    that overhead: header building, routing lookup, fragmentation to the
    MTU and reassembly, and per-packet processing costs on both sides
    (1.5 us per packet sent, 2 us per packet received).
    All cluster nodes are on one subnet, so routing degenerates to a direct
    ARP-style node→MAC mapping (charged, not modelled in detail). *)

open Os_model

type t

val create : Ethernet.t -> t
(** Registers ethertype 0x0800 with the Ethernet layer. *)

val register_tcp : t -> (Packet.tcp_segment -> src:int -> unit) -> unit
(** Handler runs at interrupt priority (softirq context). *)

val register_udp : t -> (Packet.udp_datagram -> src:int -> unit) -> unit

val send : t -> dst:int -> skb:Skbuff.t -> Packet.ip_proto -> unit
(** Fragments to the MTU when the L4 payload exceeds it.  The [skb] carries
    the data's location for the L2 transmit (its data size must match the
    L4 payload).  Blocking (device queue). *)

val mtu : t -> int
val packets_sent : t -> int
(** Wire packets, counting fragments. *)

val reassembly_pending : t -> int
val ethernet : t -> Ethernet.t
