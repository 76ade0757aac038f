(** Ethernet MAC addresses, as the switch and NICs see them.

    Unicast addresses map 1:1 to cluster node ids; the broadcast address and
    a family of multicast group addresses model the Ethernet data-link
    multicast/broadcast capability CLIC builds on. *)

type t = Node of int | Broadcast | Multicast of int

val of_node : int -> t
(** @raise Invalid_argument on a negative node id. *)

val broadcast : t
val multicast : int -> t

val flow_control : t
(** The reserved 01-80-C2-00-00-01 group address MAC-control (802.3x
    PAUSE) frames are sent to.  Link-constrained: never forwarded by
    switches. *)

val is_group : t -> bool
(** True for broadcast and multicast addresses. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
