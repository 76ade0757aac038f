(** UDP: unreliable datagrams over IP.

    Used by the PVM layer (whose daemons route packets over UDP, one of the
    reasons PVM trails every other curve in the paper's Figure 6) and as a
    light L4 for tests.  Datagrams larger than the MTU rely on IP
    fragmentation; lost fragments lose the datagram.  Each datagram costs
    4 us of CPU to send and 5 us to receive, plus a checksum at 150 MB/s
    on both sides. *)

type t

val create : Ip.t -> t

val bind : t -> port:int -> (Packet.udp_datagram -> src:int -> unit) -> unit
(** Handler runs at interrupt priority, after the receive-side costs have
    been charged.  @raise Invalid_argument on a duplicate port. *)

val sendto :
  t -> dst:int -> dst_port:int -> ?src_port:int -> bytes:int ->
  app:Packet.app -> ?zero_copy:bool -> unit -> unit
(** Blocking send of one datagram.  [zero_copy] defaults to false: the
    datagram is staged into kernel memory (the normal UDP copy). *)

val datagrams_sent : t -> int
val unbound_drops : t -> int
