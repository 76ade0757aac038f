(** The CLIC user interface: what an application links against.

    Every operation is a system call (INT 80h in the paper's Figure 3):
    the 0.65 us kernel entry/exit cost is charged here, then the operation
    runs inside {!Clic_module}.  All calls must run inside simulation
    processes.

    The primitives mirror the paper's Section 5 list: synchronous and
    asynchronous sends, send with confirmation of reception, blocking and
    non-blocking receives, remote (asynchronous) writes, broadcast on the
    Ethernet data-link multicast, same-node communication and channel
    bonding (the latter two fall out of {!Clic_module}'s construction). *)

type t

val create : Clic_module.t -> t
val kernel : t -> Clic_module.t

val send : t -> dst:int -> port:int -> int -> unit
(** Asynchronous reliable send of [n] bytes: returns when the message is
    handed over (posted or staged), not when it is received. *)

val send_sync : t -> dst:int -> port:int -> int -> unit
(** Send with confirmation of reception: blocks until the receiver's
    CLIC_MODULE has delivered the whole message and confirmed it. *)

val recv : t -> port:int -> Clic_module.message
(** Blocking receive. *)

val try_recv : t -> port:int -> Clic_module.message option
(** Non-blocking receive: "CLIC_MODULE does nothing and returns" when no
    message is waiting (still a system call). *)

val remote_write : t -> dst:int -> region:int -> int -> unit
(** Asynchronous remote write: the data lands in the destination process's
    registered region with no receive call on the far side. *)

val broadcast : t -> port:int -> int -> unit
(** Unreliable broadcast to every node on the segment. *)

val register_region :
  t -> region:int -> (bytes:int -> src:int -> unit) -> unit

val region_bytes : t -> region:int -> int
