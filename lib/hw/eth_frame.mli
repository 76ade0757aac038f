(** Ethernet frames.

    The payload is an extensible variant: each protocol stack (IP, CLIC)
    adds its own constructor and registers a handler for its ethertype, so
    the hardware layer stays independent of the protocols riding on it.

    Sizes follow IEEE 802.3: a level-1 ("pure Ethernet", as the paper calls
    it) header of 14 bytes, a 4-byte CRC, 8 bytes of preamble+SFD and a
    12-byte inter-frame gap on the wire.  Payloads are padded to the 46-byte
    minimum.  Jumbo frames simply raise the MTU to 9000. *)

type frag = {
  packet_id : int;  (** id shared by all fragments of one NIC-level packet *)
  index : int;  (** 0-based fragment index *)
  count : int;  (** total number of fragments *)
  packet_bytes : int;  (** size of the reassembled packet payload *)
}
(** NIC-side fragmentation metadata (the paper's future-work feature, after
    Gilfeather & Underwood): used only when the NIC fragments packets larger
    than the link MTU. *)

type payload = ..
type payload += Raw of int  (** opaque test payload carrying just a size *)

type t = {
  src : Mac.t;
  dst : Mac.t;
  ethertype : int;
  payload_bytes : int;  (** L2 payload size, before 46-byte padding *)
  payload : payload;
  frag : frag option;
  corrupted : bool;
      (** bits flipped in flight (fault injection): the receiving MAC's
          FCS check fails and the frame is dropped with a [bad_fcs]
          count instead of being delivered *)
  hops : int;
      (** switch traversals so far — incremented by each switch that
          forwards the frame, and dropped once it reaches the switch TTL.
          Bookkeeping only: contributes nothing to the wire size. *)
  ce : bool;
      (** congestion experienced — set by a switch whose ECN threshold
          was crossed while enqueuing this frame.  Models the switch
          rewriting the CE bit of the carried protocol header in flight,
          so like [hops] it contributes nothing to the wire size. *)
}

val header_bytes : int
(** 14 *)

val standard_mtu : int
(** 1500 *)

val jumbo_mtu : int
(** 9000 *)

val ethertype_mac_control : int
(** 0x8808 — MAC control frames (802.3x PAUSE); see {!Mac_control}. *)

val make :
  src:Mac.t ->
  dst:Mac.t ->
  ethertype:int ->
  payload_bytes:int ->
  ?frag:frag ->
  ?corrupted:bool ->
  ?ce:bool ->
  payload ->
  t
(** [corrupted] and [ce] default to [false].
    @raise Invalid_argument on a negative payload size. *)

val on_wire_bytes : t -> int
(** Bytes occupying the wire: preamble + header + padded payload + CRC +
    inter-frame gap. *)

val buffer_bytes : t -> int
(** Bytes stored in NIC buffers / moved by DMA: header + padded payload +
    CRC (no preamble or gap). *)

val pp : Format.formatter -> t -> unit
