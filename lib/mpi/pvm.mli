(** A PVM-style messaging layer: daemon-routed messages over UDP.

    Stock PVM routes task→task traffic through the pvmd daemons: the task
    hands the message to its local daemon (a copy and a context switch),
    the daemons exchange ~4 KB UDP fragments under their own stop-and-wait
    style reliability protocol, and the remote daemon hands the message to
    the destination task (another copy and wakeup).  Every message
    therefore pays two extra copies, daemon scheduling, small fragments and
    ack round trips — the reason PVM is the lowest curve in the paper's
    Figure 6. *)

open Engine

type params = {
  fragment_bytes : int;  (** daemon fragment size (PVM default ~4080) *)
  daemon_window : int;  (** fragments in flight between daemons *)
  task_to_daemon : Time.span;  (** handoff cost, each side, per message *)
  per_fragment : Time.span;  (** daemon processing per fragment, each side *)
  retransmit_timeout : Time.span;
}

type t
(** One node's PVM instance (task endpoint + daemon). *)

val create : Proto.Hostenv.t -> Proto.Udp.t -> ?params:params -> unit -> t

val send : t -> dst:int -> tag:int -> int -> unit
(** Blocking until handed to the local daemon. *)

val recv : t -> ?tag:int -> unit -> int * int * int
(** Blocking; returns (src, tag, bytes). *)

val messages_routed : t -> int
(** Messages this node's daemon forwarded or delivered. *)
