(** A shared-buffer store-and-forward Ethernet switch with 802.3x PAUSE
    and multi-hop fabric support.

    Each port is a full-duplex pair of {!Link}s with 500 ns propagation.
    Station ports (node→switch, switch→node) attach NICs; trunk ports
    ({!add_trunk}) attach peer switches, so fabrics such as a leaf/spine
    compose from the same switch.  Unicast frames are forwarded to the
    local port owning the destination MAC, else along a static ECMP route
    set ({!set_route}, hashed per flow), else counted unroutable.
    Broadcast and multicast frames are flooded to every port except the
    ingress one — the data-link multicast capability CLIC's broadcast
    primitives exploit.  A group-addressed frame floods when it arrives on
    a station port, or on the trunk that is the switch's own way back to
    the frame's source: the source's station port, else the first trunk
    of its route set (the reverse-path check of 802.1aq shortest-path
    bridging); any other copy is dropped.  Over shortest-path routes the
    flooded copies form a tree rooted at the source's switch, so every
    station hears a group frame once, even on a fabric with loops.
    Forwarding adds a fixed 2 us per frame, modelling lookup plus internal
    transfer; each port hands its frames to the lookup in the order they
    arrived.  Output contention arises from the egress queues draining at
    the line rate.

    The lookup reads two tables indexed by node id, the station ports and
    the route sets, for unicast and group frames alike, and the per-frame
    path allocates nothing but the copy of a frame it marks CE.

    Buffering: each egress port owns a FIFO drawing on a shared byte pool
    ({!buffer}) — a per-port reserve is always available, the remainder is
    shared, and frames that fit neither are tail-dropped against the egress
    port.  Every buffered frame is also charged to its {e ingress} port;
    when that occupancy crosses the high watermark the switch XOFFs the
    offending peer with a real PAUSE frame ({!Mac_control}), and XONs it
    at the low watermark.  Peers can likewise PAUSE the switch: MAC
    control frames arriving on an uplink gate that port's egress pump.
    Trunk ports participate fully, so an XOFF on a congested downstream
    switch gates the upstream pump and congestion trees form hop by hop
    across the fabric.

    Uplinks may be bounded ([ingress_frames]): a station blind-dumping into
    a full uplink FIFO loses frames to {!ingress_drops}, the failure mode
    PAUSE-honouring NICs avoid by blocking on {!Link.wait_room}. *)

type buffer = {
  total_bytes : int;  (** whole shared packet buffer *)
  port_reserve_bytes : int;  (** per-egress-port guaranteed slice *)
  ingress_high_bytes : int;  (** per-ingress-port XOFF watermark *)
  ingress_low_bytes : int;  (** per-ingress-port XON watermark *)
  pause : bool;  (** generate 802.3x PAUSE; [false] = tail-drop only *)
  pause_quanta : int;  (** quanta per XOFF, 1..0xffff *)
  max_frame_bytes : int;  (** provisioning unit for {!protected_provisioning} *)
  ecn_threshold : int;
      (** per-egress-port marking watermark, bytes; frames enqueued while
          the egress backlog (including themselves) is at or above it get
          their CE bit set.  [0] disables marking. *)
}

val default_buffer : buffer
(** 256 KiB total, 8 KiB reserve, 16/8 KiB watermarks, PAUSE on with
    maximum quanta, 1518-byte frames, ECN marking off. *)

type t

val create :
  Engine.Sim.t ->
  name:string ->
  bits_per_s:float ->
  ?fault:(unit -> Fault.t) ->
  ?egress_frames:int ->
  ?ingress_frames:int ->
  ?buffer:buffer ->
  unit ->
  t
(** [fault] is called once per created link to give each direction its own
    fault process.  [egress_frames] caps each output FIFO in frames:
    excess frames are tail-dropped into {!egress_drops}.  [ingress_frames]
    bounds each uplink's transmit queue, making blind-dumping stations
    lose frames to {!ingress_drops}.  [buffer] enables the shared-buffer
    ledger and PAUSE generation.
    @raise Invalid_argument on nonsensical buffer parameters or
    [ingress_frames <= 0]. *)

val add_port : t -> node:int -> unit
(** Declares a station port for [node].
    @raise Invalid_argument on duplicates, a negative node, or when the
    per-port reserves of the new port count would exhaust the shared
    buffer. *)

val add_trunk : ?bits_per_s:float -> t -> t -> unit
(** [add_trunk a b] joins two switches with a full-duplex trunk (one
    {!Link} per direction, at [bits_per_s], defaulting to [a]'s port
    rate).  Each side gets a trunk port carrying data, PAUSE and the
    buffer ledger exactly like a station port.
    @raise Invalid_argument on a self-trunk, switches from different
    simulations, an existing trunk between the pair, or exhausted port
    reserves. *)

val set_route : t -> dst:int -> via:string list -> unit
(** Installs a static route: unicast frames for node [dst] (when [dst] is
    not a local station) leave via one of the named peer trunks, chosen by
    a deterministic per-flow hash — equal-cost multipath when several
    peers are given.  The first named peer is also the way back from
    [dst]: group-addressed frames sourced by [dst] flood only when they
    arrive from it.  An empty [via] removes the route.  The fabric's
    routes must be loop-free — every hop closer to [dst], as
    [Cluster.Topology.routes] computes them: nothing bounds a frame's
    hops, so a route loop circulates its frames forever.
    @raise Invalid_argument when a named peer has no trunk here, or on a
    negative [dst]. *)

val clear_routes : t -> unit
(** Removes every route; station ports still receive their frames. *)

val set_down : t -> bool -> unit
(** Powers the switch down ([true]) or back up ([false]).  Down: ingress
    frames are refused into {!down_drops}, buffered frames drain with
    their ledger charges released, and PAUSE state clears — upstream
    gates expire on their own quanta timers, since a dead switch sends no
    XON.  Frames already mid-serialization finish.  Idempotent. *)

val is_down : t -> bool

val uplink : t -> node:int -> Link.t
(** The node→switch link: the node's NIC transmits into this. *)

val connect_node : t -> node:int -> (Eth_frame.t -> unit) -> unit
(** Installs the node's NIC receive function on the switch→node link. *)

val rewire_node : t -> node:int -> (Eth_frame.t -> unit) -> unit
(** Replaces the receive function on an existing port: a rebooted node
    reattaching its freshly created NIC.  Routes are unchanged, since they
    name nodes, not NICs. *)

val ports : t -> int list
(** Station node ids, in port order (trunks excluded). *)

val trunks : t -> string list
(** Peer switch names reachable over local trunks, in port order. *)

val trunk_tx_frames : t -> peer:string -> int
(** Data frames transmitted on the trunk toward [peer] — the per-uplink
    load counter ECMP-spread tests read.
    @raise Invalid_argument when no such trunk exists. *)

val frames_forwarded : t -> int

val frames_flooded : t -> int
(** Copies emitted for group-addressed frames. *)

val frames_unroutable : t -> int

val down_drops : t -> int
(** Frames refused while the switch was powered down. *)

val egress_drops : t -> int
(** Frames tail-dropped at full egress FIFOs or an exhausted shared
    buffer. *)

val ingress_drops : t -> int
(** Frames lost at full bounded uplink FIFOs (stations transmitting
    without backpressure). *)

val pause_frames_tx : t -> int
(** PAUSE frames the switch generated (XOFF and XON). *)

val pause_frames_rx : t -> int
(** PAUSE frames received from stations or peer switches. *)

val ecn_marked : t -> int
(** Frames whose CE bit this switch set (0 unless the buffer config has a
    positive [ecn_threshold]). *)

val buffer_occupied : t -> int
(** Bytes currently held in the shared buffer (0 when unbuffered). *)

val peak_buffer_occupied : t -> int

val egress_paused_ns : t -> int
(** Total time egress ports spent gated by peer-originated PAUSE. *)

val protected_provisioning : t -> bool
(** Whether the configuration guarantees zero switch loss for
    PAUSE-honouring stations: PAUSE on, bounded uplinks, no trunks (the
    per-switch proof does not compose across hops), and a shared buffer
    large enough for every port's high watermark plus its worst-case
    in-flight spill. *)

(** {1 Gray failure: intermittent egress stall} *)

val inject_stall : t -> node:int -> span:Engine.Time.span -> unit
(** Freezes the egress pump of the port facing [node] for [span] from now:
    the port stops serving its FIFO (frames already handed to the wire
    finish), with no MAC-control announcement to the peer — a gray stall,
    not a PAUSE.  Overlapping injections extend the stall.  Engagement and
    clearing are emitted as [Probe.Gray_fault { mode = "switch-stall" }]
    edges.
    @raise Invalid_argument if [span <= 0] or no port faces [node]. *)

val egress_stalls : t -> int
(** Stall injections accepted so far. *)

val egress_stall_ns : t -> int
(** Total egress time frozen by injected stalls. *)

val has_node : t -> int -> bool
(** Whether a station port for [node] exists on this switch. *)
