(** A generic Ethernet NIC driver, deliberately {e unmodified} by CLIC.

    The paper's core design constraint is that CLIC must not touch the
    vendor driver: the protocol lives above this interface.  The driver

    - on transmit: builds the NIC descriptor from an {!Skbuff} (scatter-
      gather, so fragments in user memory ride the 0-copy path), charges
      the driver routine's CPU time, and posts to the NIC ring;
    - on receive: fields the NIC interrupt, drains the ring in the ISR
      (the routine that "remains active until all the data stored in the
      NIC buffers have been moved to system memory"), and hands packets to
      the protocol's upcall — normally via a bottom half (paper Figure 8a),
      or directly from the ISR when the Figure 8b improvement is enabled.

    Per-packet CPU costs are parameters, calibrated in [Clic.Params]. *)

open Engine
open Hw

type rx_mode =
  | Via_bottom_half  (** stock path: ISR → bottom halves → protocol *)
  | Direct_from_isr  (** the paper's proposed improvement (Figure 8b) *)

type params = {
  tx_routine : Time.span;  (** driver send routine, per packet *)
  isr_entry : Time.span;  (** fixed cost per interrupt taken *)
  isr_per_packet : Time.span;  (** ring walk + sk_buff handling, per packet *)
  bh_per_packet : Time.span;  (** receive-routine base cost, per packet *)
  bh_bytes_per_s : float;
      (** per-byte receive handling rate (the SK_BUFF build-and-move of
          Figure 8a); charged in the bottom half, or in the ISR when
          [Direct_from_isr] *)
  rx_mode : rx_mode;
  napi : bool;
      (** receiver-livelock mitigation: when the interrupt rate crosses
          the threshold below, switch from per-packet interrupts to a
          budgeted polling loop until the ring drains *)
  napi_enter_gap : Time.span;
      (** an interrupt closer than this to its predecessor counts as
          "hot" *)
  napi_enter_after : int;
      (** consecutive hot interrupts before polling engages — the
          hysteresis that keeps an isolated burst on the interrupt path *)
  napi_budget : int;  (** max packets serviced per polling pass *)
  napi_interval : Time.span;  (** delay between successive polling passes *)
}

val default_params : params
(** Calibrated against the paper's Figure 7: 4 us tx routine, 2 us ISR
    entry, 2.5 us ISR per packet, and a bottom half of 4 us + bytes at
    180 MB/s per packet (≈15 us for a 1400-byte packet, as in Figure 7a);
    [Via_bottom_half].  NAPI polling is off by default (the stock 2.4-era
    driver the paper works against); when enabled the defaults are a
    20 us gap, 4 hot interrupts, budget 16, 15 us between passes. *)

type t

val create :
  Sim.t ->
  cpu:Cpu.t ->
  intr:Interrupt.t ->
  bh:Bottom_half.t ->
  nic:Nic.t ->
  ?params:params ->
  unit ->
  t
(** Hooks the NIC's interrupt line; at most one driver per NIC.  The ISR,
    bottom-half, polling and transmit-routine stages run under
    {!Cpu.traced}, so with a probe sink installed each one is reported as
    a span of [cpu] (Figure 7 and the timeline read them). *)

val set_rx_upcall : t -> (Nic.rx_desc -> unit) -> unit
(** The protocol entry point (CLIC_MODULE, or netif_rx for TCP/IP).  Runs
    in interrupt context: it must charge CPU work at [`High] priority and
    must not block on task-level events. *)

val transmit :
  t ->
  skb:Skbuff.t ->
  dst:Mac.t ->
  src:Mac.t ->
  ethertype:int ->
  payload:Eth_frame.payload ->
  ?internal_copy:bool ->
  on_complete:(unit -> unit) ->
  unit ->
  bool
(** Charges the driver routine on the CPU, then posts the frame.  Returns
    [false] (after the CPU charge) when the transmit ring is full — the
    "data cannot be sent at the present moment" answer CLIC_MODULE acts on.
    Zero-copy is used when the skbuff's fragments allow it. *)

val kill : t -> unit
(** Node-crash support: the driver stops servicing interrupts and polling,
    and ring buffers already queued for a bottom half are discarded (each
    reported freed) instead of delivered.  There is no revival — a
    rebooted node creates a fresh driver. *)

val nic : t -> Nic.t
val params : t -> params
val rx_upcalls : t -> int

val is_polling : t -> bool
(** True while the NAPI-style polling loop owns rx servicing. *)

val poll_mode_switches : t -> int
(** Transitions between interrupt and polling mode (both directions). *)

val poll_passes : t -> int
val polled_packets : t -> int
