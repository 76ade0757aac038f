(** A Gigabit Ethernet network interface card.

    Models the features the paper's Section 2 identifies as essential to
    exploit gigabit technology:

    - bus-master {b DMA} between host memory and the NIC's local buffers
      (enabling CLIC's 0-copy path),
    - configurable {b MTU} up to jumbo frames,
    - {b interrupt coalescing} (count threshold + quiet timer + absolute
      holdoff),
    - optional {b NIC-side fragmentation}: packets larger than the link MTU
      are split by NIC firmware on transmit and reassembled in NIC memory on
      receive, delivering one host packet (and one interrupt opportunity)
      per {e packet} rather than per {e frame} — the paper's future-work
      feature after Gilfeather & Underwood.

    The transmit and receive data paths are explicit pipelines:

    {v
    tx: host ring -> DMA (PCI+mem) -> [internal copy] -> firmware -> wire
    rx: wire -> firmware -> [reassembly] -> DMA (PCI+mem) -> host ring -> IRQ
    v}

    Each stage occupies the corresponding resource, so the bottleneck moves
    with configuration exactly as the paper discusses. *)

open Engine

type coalesce = {
  max_frames : int;  (** assert after this many pending packets *)
  quiet : Time.span;  (** assert when this long passes with no new packet *)
  absolute : Time.span;  (** assert at most this long after the first one *)
}

val no_coalesce : coalesce
(** Interrupt per packet (count threshold 1). *)

val default_coalesce : coalesce
(** A mild setting comparable to the testbed NICs' defaults: 8 frames,
    2 us quiet, 50 us absolute. *)

type pause = {
  honor : bool;
      (** gate the transmit path on received 802.3x PAUSE frames *)
  gen_high : int;
      (** XOFF the link partner when this many packets back up in the rx
          ring; 0 disables generation *)
  gen_low : int;  (** XON once the ring drains to this depth *)
  gen_quanta : int;  (** quanta per generated XOFF, 1..0xffff *)
}
(** 802.3x flow-control configuration.  A flow-controlled NIC also blocks
    on uplink backpressure ({!Link.wait_room}) instead of blind-dumping
    frames into a full switch FIFO. *)

val pause_802_3x : pause
(** Honour received PAUSE; generation off. *)

type tx_desc = {
  frame : Eth_frame.t;  (** payload larger than the MTU requires
                            fragmentation to be enabled *)
  needs_dma : bool;  (** false when the driver already moved the bytes (PIO
                         paths) *)
  internal_copy : bool;  (** stage through the NIC output buffer (paper's
                             Figure 1, paths 2 and 4) *)
  on_complete : unit -> unit;  (** runs when the frame has left the NIC *)
}

type rx_desc = {
  rx_id : int;  (** process-unique identity, for the lifecycle sanitizer *)
  rx_frame : Eth_frame.t;  (** reassembled: fragment metadata cleared *)
  host_bytes : int;  (** bytes DMA'd into the host ring buffer *)
  arrived : Time.t;  (** wire arrival time of the (last) frame *)
}

type t

val create :
  Sim.t ->
  name:string ->
  mtu:int ->
  pci:Bus.t ->
  membus:Bus.t ->
  ?tx_ring:int ->
  ?rx_ring:int ->
  ?coalesce:coalesce ->
  ?internal_bytes_per_s:float ->
  ?firmware_per_frame:Time.span ->
  ?fragmentation:bool ->
  ?pause:pause ->
  unit ->
  t
(** [pause] enables 802.3x flow control (absent by default: a legacy MAC
    that ignores MAC-control frames' pause semantics and never blocks on
    the wire).
    @raise Invalid_argument on out-of-range pause parameters. *)

(** {1 Wiring} *)

val attach_uplink : t -> Link.t -> unit
(** The link this NIC transmits into. *)

val rx_from_wire : t -> Eth_frame.t -> unit
(** Entry point for frames delivered by the attached downlink; pass this to
    {!Link.connect} / {!Switch.connect_node}.  Frames arriving with
    [corrupted = true] fail the MAC's FCS check and are counted in
    {!bad_fcs}; frames arriving while the NIC is {!power_off} are lost
    silently. *)

val set_rx_admission : t -> (bytes:int -> bool) -> unit
(** Installs the host-memory admission gate consulted before a received
    packet is DMA'd into the host ring (the OS layer wires this to its
    kernel pool's watermark level).  Returning [false] drops the packet
    with the {!rx_dropped_mem} reason.
    @raise Invalid_argument when already set. *)

val set_interrupt : t -> (unit -> unit) -> unit
(** Installs the interrupt line.  The NIC asserts at most one interrupt
    until {!unmask_irq} is called. *)

(** {1 Host-side (driver) interface} *)

val try_post_tx : t -> tx_desc -> bool
(** Queues a descriptor if a transmit ring slot is free; [false] when the
    ring is full (the driver then tells CLIC_MODULE the data cannot be sent
    now). *)

val post_tx_blocking : t -> tx_desc -> unit
(** Blocks the calling process until a slot frees. *)

val take_rx : t -> rx_desc list
(** Drains all pending received packets (oldest first) and frees their ring
    slots; called from the ISR. *)

val take_rx_budget : t -> int -> rx_desc list
(** Takes at most [budget] pending packets (oldest first), freeing their
    ring slots: one pass of the driver's NAPI-style polling loop.  An
    empty result means the ring has drained.
    @raise Invalid_argument on a non-positive budget. *)

val unmask_irq : t -> unit
(** Re-enables interrupt assertion; re-evaluates coalescing immediately if
    packets arrived while masked.  No-op while powered off. *)

val power_off : t -> unit
(** Models the node losing power: pending ring buffers are discarded (each
    reported freed to the lifecycle sanitizer), coalescing timers are
    cancelled, and until {!power_on} the NIC neither receives from the
    wire, transmits onto it, nor asserts interrupts.  In-flight transmit
    descriptors still run their completion callbacks so posted buffers
    are released. *)

val power_on : t -> unit
(** Clears the {!power_off} state (used only if a NIC object is revived
    rather than replaced; a rebooted node normally builds a fresh NIC). *)

(** {1 Configuration and statistics} *)

val name : t -> string
val mtu : t -> int

val pci : t -> Bus.t
(** The I/O bus this NIC sits on (for programmed-I/O transfers). *)

val is_down : t -> bool
val interrupts_raised : t -> int
val tx_packets : t -> int
val rx_packets : t -> int
(** Packets delivered to the host (post-reassembly). *)

val rx_dropped : t -> int
(** Packets lost to a full receive ring. *)

val rx_dropped_mem : t -> int
(** Packets shed because the host kernel pool was at its hard watermark
    (the {!set_rx_admission} gate refused them). *)

val bad_fcs : t -> int
(** Frames discarded by the MAC's frame-check-sequence over corrupted
    bits. *)

val tx_ring_free : t -> int
val rx_pending : t -> int

val is_tx_paused : t -> bool
(** Whether the transmit path is currently gated by a received PAUSE. *)

val tx_paused_ns : t -> int
(** Cumulative time the transmit path has spent PAUSEd, including any
    pause still in progress. *)

val pause_frames_rx : t -> int
val pause_frames_tx : t -> int

(** {1 Gray failure: fail-slow service inflation} *)

val set_slow_factor : t -> float -> unit
(** Inflates every firmware/DMA-adjacent per-frame service span (ISR-side
    receive service, transmit firmware passes and internal copies) by the
    given factor — a NIC that has gone {e fail-slow} without dying.  A
    factor of 1.0 restores healthy service.  Transitions are emitted as
    [Probe.Gray_fault { mode = "nic-slow" }] edges.
    @raise Invalid_argument if [factor < 1]. *)

val slow_factor : t -> float

val slow_extra_ns : t -> int
(** Total extra service nanoseconds the inflation has injected — the
    soak's evidence that the fail-slow NIC actually served traffic while
    degraded. *)
