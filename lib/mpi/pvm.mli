(** A PVM-style messaging layer: daemon-routed messages over UDP.

    Stock PVM routes task→task traffic through the pvmd daemons: the task
    hands the message to its local daemon (a copy and a context switch),
    the daemons exchange ~4 KB UDP fragments under their own stop-and-wait
    style reliability protocol, and the remote daemon hands the message to
    the destination task (another copy and wakeup).  Every message
    therefore pays two extra copies, daemon scheduling, small fragments and
    ack round trips — the reason PVM is the lowest curve in the paper's
    Figure 6.

    The daemons cut 4080-byte fragments and keep 3 in flight, resending
    one after 100 ms without its ack; each fragment costs 12 us of daemon
    work on each side, and each task <-> daemon handoff 15 us. *)

type t
(** One node's PVM instance (task endpoint + daemon). *)

val create : Proto.Hostenv.t -> Proto.Udp.t -> t

val send : t -> dst:int -> tag:int -> int -> unit
(** Blocking until handed to the local daemon. *)

val recv : t -> ?tag:int -> unit -> int * int * int
(** Blocking; returns (src, tag, bytes). *)

val messages_routed : t -> int
(** Messages this node's daemon forwarded or delivered. *)
