(** CLIC protocol parameters and calibrated costs.

    Every number the paper quotes about CLIC's own path lives here:

    - CLIC_MODULE send-side processing is 0.7 us and the (unmodified)
      driver routine about 4 us (Figure 7a's "0.7+4 us");
    - CLIC_MODULE receive-side processing is 2 us (Figure 7);
    - the 12-byte CLIC header rides on the 14-byte level-1 Ethernet header;
    - when the NIC cannot accept a packet, the module stages the data into
      system memory and lets the application continue (Section 3.1); it
      blocks only when the kernel pool cannot take the copy either.

    The {!data_path} field selects among the four user-to-NIC transfer
    paths of the paper's Figure 1; Gigabit CLIC uses path 2 ({!Dma_nic_buffer},
    the "0-copy" configuration) and Fast-Ethernet CLIC used path 4
    ({!Staged_nic_buffer}, "1-copy"). *)

open Engine

type data_path =
  | Pio_direct  (** path 1: CPU-programmed I/O from user memory to the NIC *)
  | Dma_nic_buffer
      (** path 2: NIC bus-masters from user memory into its output buffer
          (0-copy; the Gigabit Ethernet CLIC default) *)
  | Staged_direct
      (** path 3: CPU copies user→kernel, DMA straight to the transmit
          interface *)
  | Staged_nic_buffer
      (** path 4: CPU copies user→kernel, DMA into the NIC output buffer
          (1-copy; the Fast Ethernet CLIC path) *)

type t = {
  module_tx : Time.span;  (** CLIC_MODULE send processing, per packet *)
  module_rx : Time.span;  (** CLIC_MODULE receive processing, per packet *)
  header_bytes : int;  (** the CLIC header: 12 bytes *)
  data_path : data_path;
  ack_every : int;  (** cumulative channel ack frequency, packets *)
  ack_timeout : Time.span;  (** ack latency bound when traffic stops *)
  retransmit_timeout : Time.span;
      (** initial RTO, used until the first RTT sample arrives *)
  rto_min : Time.span;  (** adaptive RTO floor *)
  rto_max : Time.span;  (** RTO cap, also bounds exponential backoff *)
  dup_ack_threshold : int;
      (** duplicate cumulative acks that trigger a fast retransmit *)
  max_retries : int;
      (** consecutive timeouts without progress before the peer is
          declared dead and blocked senders are released with an error *)
  tx_window : int;  (** per-peer outstanding-packet bound *)
  super_packet_bytes : int;
      (** max NIC-level packet when the NIC fragments
          ({!Hw.Nic.fragmentation}, the paper's future-work feature) *)
  staging_bytes_per_s : float;
      (** effective rate of the user→kernel staging copy (1-copy paths and
          ring-full staging); slower than a hot memcpy because it allocates
          and touches cold kernel buffers *)
  staging_overhead : Time.span;
      (** per-packet cost of allocating and setting up the kernel staging
          buffer *)
  kmem_soft_frac : float;
      (** kernel-pool soft watermark as a fraction of capacity: above it
          CLIC sheds load — advertised windows shrink and ack staging is
          deferred *)
  kmem_hard_frac : float;
      (** kernel-pool hard watermark fraction: at or above it the NIC
          drops ingress frames (counted) and CLIC stops staging
          ring-full transmissions; must satisfy
          [0 < soft <= hard <= 1] *)
  soft_window_frac : float;
      (** fraction of {!tx_window} advertised to peers while the pool is
          above its soft mark (at least 1 packet is always advertised) *)
  retx_scheme : [ `Go_back_n | `Sack ];
      (** loss recovery on timeout: [`Go_back_n] (the default) resends
          everything outstanding; [`Sack] resends only the holes the
          peer's SACK blocks have not covered, and makes receivers
          advertise SACK blocks from their out-of-order queues *)
  sack_blocks : int;
      (** most SACK blocks advertised per ack when [retx_scheme = `Sack];
          within [1, {!Wire.max_sack_blocks}] *)
  dctcp : bool;
      (** DCTCP-style congestion control: receivers echo CE marks on
          acks, senders keep an EWMA mark fraction and scale their
          effective window multiplicatively.  Needs an ECN-marking
          switch ({!Hw.Switch.buffer}[.ecn_threshold]) to do anything *)
  dctcp_g : float;
      (** EWMA gain for the DCTCP mark-fraction estimate, in (0, 1] *)
}

val default : t
(** The Gigabit Ethernet configuration of the paper's evaluation:
    path 2 and 12-byte headers. *)

val one_copy : t
(** The "1-copy" configuration of Figure 4 (path 4). *)

val validate : t -> t
(** Checks the parameter set for internal consistency and returns it
    unchanged; {!Clic_module.create} calls this on construction.
    @raise Invalid_argument when [rto_min > rto_max], when
    [dup_ack_threshold], [max_retries], [tx_window] or [ack_every] is
    non-positive, when the kernel-pool watermark fractions are out of
    order, when [soft_window_frac] or [dctcp_g] is outside [(0, 1]], or
    when [sack_blocks] is outside [[1, Wire.max_sack_blocks]]. *)
