(** Per-peer reliable delivery: the transport half of CLIC.

    Each pair of nodes shares a bidirectional channel carrying sequenced
    packets with cumulative acknowledgements, a bounded transmit window,
    go-back-N retransmission on timeout, and in-order delivery with an
    out-of-order hold queue (packets may reorder under channel bonding).

    Two congestion-regime extensions ride on the same machinery, both off
    by default.  With {!Params.retx_scheme}[ = `Sack] the receiver
    advertises up to {!Params.sack_blocks} SACK blocks from its
    out-of-order queue on every ack and the sender retransmits only the
    unSACKed holes on timeout.  With {!Params.dctcp} the receiver echoes
    switch-set CE marks back on acks and the sender runs DCTCP: an EWMA
    estimate [alpha] of the marked-ack fraction (gain {!Params.dctcp_g}),
    a multiplicative [1 - alpha/2] window cut once per marked window, and
    additive increase back toward {!Params.tx_window} on clean acks.

    The retransmission timeout adapts to the measured path: each
    unambiguous ack yields an RTT sample feeding Jacobson/Karels smoothing
    (SRTT, RTTVAR; RTO = SRTT + 4 RTTVAR clamped to
    [{!Params.rto_min}, {!Params.rto_max}]), retransmitted packets never
    yield samples (Karn's algorithm), consecutive timeouts without
    progress double the effective RTO up to the cap, and
    {!Params.dup_ack_threshold} duplicate cumulative acks trigger a fast
    retransmit of the first missing packet without waiting for the timer.

    The channel does not touch hardware itself: the owner (CLIC_MODULE)
    supplies [transmit] (hand a packet to a NIC), [deliver] (in-order
    upcall) and [send_ack] closures.  [transmit] for retransmissions is
    invoked from a fresh process; [deliver] runs in the receive (interrupt)
    context. *)

open Engine

type t

exception Dead of int
(** Raised by {!next_seq} (with the peer id) once the channel has been torn
    down: the peer exceeded {!Params.max_retries} consecutive timeouts and
    is considered unreachable.  Senders blocked on the transmit window at
    teardown time are woken and receive this exception too. *)

val create :
  Sim.t ->
  self:int ->
  peer:int ->
  ?epoch:int ->
  params:Params.t ->
  transmit:(Wire.packet -> retransmission:bool -> unit) ->
  deliver:(Wire.packet -> unit) ->
  send_ack:(cum_seq:int -> sacks:(int * int) list -> ce_echo:bool -> unit) ->
  ?defer_acks:(unit -> bool) ->
  ?on_death:(unit -> unit) ->
  unit ->
  t
(** [epoch] (default 0) is this node's boot epoch, stamped into every
    packet the channel sends so that a peer can reject pre-crash
    stragglers.  [defer_acks], when supplied and returning [true]
    (kernel pool above its soft watermark), doubles the ack batch size
    and timeout so fewer ack packets compete for kernel memory.
    [on_death] fires exactly once, from {!teardown}, however the channel
    dies — the owner uses it to fail work (e.g. confirmed sends) that can
    no longer complete. *)

val next_seq : t -> data_bytes:int -> Wire.kind -> Wire.packet
(** Blocks while the transmit window is full; assigns the next sequence
    number, records the packet for retransmission and arms the timer.
    Must run in a process.  @raise Invalid_argument on unreliable kinds.
    @raise Dead if the peer has been declared unreachable (including while
    blocked on the window). *)

val rx : t -> Wire.packet -> unit
(** Handles an incoming sequenced packet: delivers in order, holds
    out-of-order arrivals, acknowledges per the ack policy.  Duplicate
    packets are dropped (re-acknowledged).  Out-of-order arrivals trigger
    an immediate ack naming the hole, so the sender's duplicate-ack
    counter can fire a fast retransmit. *)

val rx_ack :
  t -> ?window:int -> ?sacks:(int * int) list -> ?ce_echo:bool -> int -> unit
(** Cumulative ack from the peer: frees window slots and retransmit state,
    feeds the RTT estimator, resets backoff; a duplicate ack advances the
    fast-retransmit counter instead.  [window], when present, is the
    peer's advertised window: the channel withholds
    [tx_window - window] currently-free permits (best-effort,
    non-blocking) so new transmissions respect the peer's backpressure,
    and releases them again when the advertisement grows.  [sacks]
    (honoured only when {!Params.retx_scheme}[ = `Sack]) marks the named
    outstanding segments as held by the peer, so the next timeout skips
    them; [ce_echo] feeds the DCTCP estimator when {!Params.dctcp} is
    on. *)

val teardown : t -> unit
(** Declares the channel dead immediately: cancels timers, discards
    retransmit state, and wakes blocked senders with {!Dead}.  Invoked
    internally when the retry cap is hit, and by the owner when the peer
    is known to have crashed (a packet with a newer epoch arrived) or
    the local node is shutting down. *)

val is_dead : t -> bool
(** True once the retry cap ({!Params.max_retries} consecutive timeouts
    without progress) has been hit, or after {!teardown}: the channel
    stops retransmitting, declares the peer unreachable, and releases
    blocked senders. *)

(** {1 Statistics} *)

val outstanding : t -> int

val acks_deferred : t -> int
(** Ack transmissions pushed past the normal batch boundary because the
    kernel pool was above its soft watermark. *)

val retransmissions : t -> int
val duplicates_dropped : t -> int
val delivered : t -> int

val sacked_segments : t -> int
(** Outstanding segments the peer's SACK blocks marked as held (counted
    once per segment). *)

val retx_bytes : t -> int
(** Wire bytes (CLIC header + payload) spent on retransmissions — the
    quantity the SACK-vs-go-back-N comparison measures. *)

val retx_bytes_saved : t -> int
(** Wire bytes timeouts did {e not} resend because the peer had SACKed
    the segment. *)

val ce_echoes : t -> int
(** Acks received carrying the CE-echo bit (sender side). *)

val ce_marks_rx : t -> int
(** CE-marked packets received (receiver side). *)

val dctcp_alpha : t -> float
(** The DCTCP EWMA estimate of the marked-ack fraction; 0 until marks
    arrive. *)

val cwnd : t -> int
(** The effective transmit limit: the peer's advertised window tightened
    by the DCTCP congestion window when {!Params.dctcp} is on. *)

val srtt : t -> Time.span option
(** Smoothed RTT; [None] until the first sample. *)

val rto : t -> Time.span
(** The retransmission timeout that would be armed now, including any
    exponential backoff from consecutive timeouts. *)

val rtt_samples : t -> int
(** Unambiguous RTT measurements folded into the estimator. *)

val timeouts : t -> int
(** Retransmission-timer expiries that caused a go-back-N resend. *)

val fast_retransmits : t -> int
(** Holes resent on duplicate acks without waiting for the timer. *)

val rto_stats : t -> Stats.Summary.t
(** Distribution (in microseconds) of the effective RTO at each arming of
    the retransmission timer. *)
