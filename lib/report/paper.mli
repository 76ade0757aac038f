(** The paper's published numbers, as machine-readable reference data.

    Used by EXPERIMENTS.md generation and by integration tests that assert
    the reproduction preserves each comparative claim (who wins, roughly by
    how much, where crossovers fall) — not absolute equality, since the
    substrate is a calibrated simulator rather than the authors' testbed. *)

val zero_byte_latency_us : float
(** 36 us (Section 4). *)

val clic_asymptote_mtu9000_mbps : float
(** ~600 Mbit/s (Section 5). *)

val clic_asymptote_mtu1500_mbps : float
(** ~450 Mbit/s (Section 5). *)

val clic_over_tcp_best_case : float
(** CLIC gives "more than twofold" TCP's best bandwidth (Section 4). *)

val mpi_clic_over_mpi_tcp_worst_case : float
(** MPI-CLIC ≥ 1.5 × MPI-TCP for long messages (Section 4). *)

val half_bandwidth_size_clic : int
(** 4 KB: message size where CLIC reaches 50% of its asymptote. *)

val half_bandwidth_size_tcp : int
(** 16 KB for TCP/IP. *)

val fig7a_bottom_half_us : float
(** 15 us for a 1400-byte packet (Figure 7a). *)

val fig7a_module_rx_us : float
(** 2 us (Figure 7a). *)

val fig7_interrupt_latency_us : float
(** ~20 us, reduced to ~5 us by the Figure 8b improvement. *)

val fig7b_interrupt_latency_us : float

val gamma_latency_us : float
(** 32 us with the GA620 NIC (Section 5's comparison). *)

val gamma_bandwidth_mbps : float
(** 768-824 Mbit/s (Section 5). *)
