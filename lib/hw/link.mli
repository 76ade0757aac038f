(** A unidirectional Ethernet link.

    Frames handed to {!send} are serialized one at a time at the link rate
    (counting preamble, padding, CRC and inter-frame gap), travel for the
    propagation delay, and are delivered to the receiver callback installed
    with {!connect}.  Frames queue FIFO while the transmitter is busy, like
    a NIC transmit FIFO feeding the PHY.

    A frame crossing a link with no fault allocates nothing: the queue and
    the frames propagating are {!Ring}s, and the events that end a frame's
    serialization and deliver it run thunks built once by {!create}.

    Full-duplex operation is modelled with two independent links. *)

type t

val create :
  Engine.Sim.t ->
  name:string ->
  bits_per_s:float ->
  ?propagation:Engine.Time.span ->
  ?fault:Fault.t ->
  ?queue_limit:int ->
  unit ->
  t
(** [queue_limit] bounds the transmit queue in frames (a switch's finite
    egress buffer): frames arriving at a full queue are dropped and
    counted.  Unbounded by default.  [fault] disturbs frames after the
    propagation delay: drops, bursty loss, duplication, delay jitter and
    link flaps per {!Fault}. *)

val connect : t -> (Eth_frame.t -> unit) -> unit
(** Installs the receiver.  Frames delivered before a receiver is connected
    are counted as drops.
    @raise Invalid_argument when a receiver is already installed. *)

val reconnect : t -> (Eth_frame.t -> unit) -> unit
(** Replaces the receiver: a rebooted node reattaching its new NIC to the
    existing switch port.  Frames already in flight are delivered to the
    new receiver. *)

val set_tx_complete : t -> (Eth_frame.t -> unit) -> unit
(** Installs a callback fired when a frame finishes serializing onto the
    wire (before the next queued frame starts).  A shared-buffer switch
    releases the frame's buffer bytes here. *)

val set_on_drop : t -> (Eth_frame.t -> unit) -> unit
(** Installs a callback fired for each frame dropped at a full transmit
    queue, letting the owner attribute the loss (e.g. a switch counting
    ingress drops per port). *)

val send : t -> Eth_frame.t -> unit
(** Non-blocking enqueue for transmission. *)

val has_room : t -> bool
(** Whether {!send} would enqueue rather than drop right now. *)

val wait_room : t -> unit
(** Blocks the calling process until the transmit queue has room (a NIC
    respecting backpressure instead of blind-dumping into a full uplink).
    Returns immediately when the queue is unbounded or has space.  Must be
    called from process context. *)

val serialization_time : t -> Eth_frame.t -> Engine.Time.span
(** Uncontended wire occupancy of one frame. *)

val bits_per_s : t -> float
val frames_sent : t -> int
val frames_dropped : t -> int

val queue_depth : t -> int
(** Frames waiting behind the one being serialized. *)
