(** CLIC_MODULE: the protocol engine inserted in the OS kernel.

    This is the paper's Figure 3 machinery.  On send, the module builds the
    CLIC header, fills an SK_BUFF and calls the unmodified driver; if the
    NIC cannot take the packet now, the data is staged into system memory
    and the application continues — the staged packet goes out when ring
    space frees.  On receive, the module runs in the driver's upcall
    context (bottom half, or directly from the ISR with the Figure 8b
    improvement), matches waiting receivers, moves data to user memory and
    wakes processes through the scheduler.

    Messages are fragmented over MTU-sized packets on a per-peer reliable
    {!Channel}; same-node destinations short-circuit through kernel memory;
    broadcast fragments ride unsequenced on the Ethernet broadcast address;
    several NICs may be bonded (round-robin striping).

    The user-facing system-call layer is {!Api}; this module is the kernel
    side. *)

open Engine
open Proto

type t

type message = {
  msg_src : int;
  msg_epoch : int;  (** the sender's boot epoch when it sent the message *)
  msg_id : int;  (** sender-local message id *)
  msg_port : int;
  msg_bytes : int;
  msg_sync : bool;
  msg_broadcast : bool;
  msg_arrived : Time.t;  (** completion (last fragment) time *)
  mutable msg_uncopied : int;  (** bytes not yet moved to user memory *)
}

val create :
  Hostenv.t ->
  ?params:Params.t ->
  ?epoch:int ->
  ?trace:Trace.t ->
  Ethernet.t list ->
  t
(** [create env eths] registers the CLIC ethertype on every given Ethernet
    attachment (more than one = channel bonding).  The list must not be
    empty.  [epoch] (default 0) is this kernel's boot epoch, stamped into
    every packet; a node that reboots after a crash builds a new module
    with a strictly higher epoch so peers can tell its fresh channel state
    from pre-crash stragglers.  [params] is validated
    ({!Params.validate}).
    @raise Invalid_argument on inconsistent parameters or a negative
    epoch. *)

val shutdown : t -> unit
(** Crash/orderly-stop path: tears every channel down (waking blocked
    senders with {!Channel.Dead}), returns staged backlog bytes to the
    kernel pool so its accounting balances, discards reassembly and
    undelivered port queues, and stops accepting frames.  Idempotent. *)

val params : t -> Params.t
val env_of : t -> Hostenv.t

(** {1 Kernel-side operations (called by {!Api} under a system call)} *)

val send_message :
  t ->
  dst:int ->
  port:int ->
  ?sync:bool ->
  ?sync_failed:(exn -> unit) ->
  int ->
  sync_done:(unit -> unit) ->
  unit
(** Fragment and transmit a message.  Blocking (window/staging).  For
    [sync] sends, [sync_done] fires when the end-to-end confirmation
    arrives; if the channel to [dst] dies first, [sync_failed] (default: a
    no-op) fires with {!Channel.Dead} instead, so callers never wait
    forever on a crashed peer. *)

val broadcast_message : t -> port:int -> int -> unit
val remote_write : t -> dst:int -> region:int -> int -> unit

val recv_wait : t -> port:int -> message
(** Blocks until a message is queued on the port, then charges the
    copy-to-user if the module did not already perform it. *)

val recv_poll : t -> port:int -> message option
(** The non-blocking receive: "if the message has not arrived yet,
    CLIC_MODULE does nothing and returns". *)

val register_region : t -> region:int -> (bytes:int -> src:int -> unit) -> unit
(** Remote-write notification callback (runs at interrupt priority). *)

val region_bytes : t -> region:int -> int

(** {1 Statistics} *)

val messages_delivered : t -> int
val packets_sent : t -> int
val packets_staged : t -> int
(** Packets that found the ring full and were staged in system memory. *)

val local_messages : t -> int
val retransmissions : t -> int

val timeouts : t -> int
(** Retransmission-timer expiries summed over all channels. *)

val fast_retransmits : t -> int
(** Duplicate-ack hole resends summed over all channels. *)

val sacked_segments : t -> int
(** Outstanding segments marked held by peers' SACK blocks, summed over
    all channels. *)

val retx_bytes : t -> int
(** Wire bytes spent on retransmissions, summed over all channels. *)

val retx_bytes_saved : t -> int
(** Wire bytes timeouts skipped thanks to SACK, summed over all
    channels. *)

val ce_echoes : t -> int
(** Acks received with the CE-echo bit, summed over all channels. *)

val channel_to : t -> peer:int -> Channel.t option

val epoch : t -> int
(** This kernel's boot epoch. *)

val stale_epoch_drops : t -> int
(** Frames discarded because they carried an older epoch than the newest
    seen from their sender (pre-crash stragglers). *)

val peer_reboots : t -> int
(** Times a frame with a strictly newer epoch arrived from a known peer:
    the peer crashed and rebooted, so its old channel and half-reassembled
    messages were discarded. *)

val reestablishments : t -> int
(** Channels re-created after a teardown (peer declared unreachable or
    rebooted) because traffic to/from the peer resumed. *)

val advertised_window : t -> int
(** The transmit window this node currently advertises to peers, shrunk
    below {!Params.tx_window} while the kernel pool is above its soft
    ({!Params.soft_window_frac} of the window) or hard (single packet)
    watermark. *)

val acks_deferred : t -> int
(** Ack transmissions pushed past the normal batch boundary under pool
    pressure, summed over all channels. *)
