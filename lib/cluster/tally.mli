(** Cluster-wide counter tally: every statistic the experiment rows, the
    contracts and the soak evidence read, summed over nodes, NICs, drivers
    and switches in one place.

    A node's CLIC kernel, NICs and drivers are rebuilt on reboot, so their
    counters cover one boot only; a caller that crashes nodes banks
    {!boot} of the dying boot before {!Node.reboot} and adds {!net} at the
    end.  The crash count and the switches survive reboots and are read by
    {!net} only, so nothing is counted twice. *)

type t = {
  (* CLIC kernel *)
  retransmissions : int;
  retx_bytes : int;  (** wire bytes spent on retransmissions *)
  retx_bytes_saved : int;  (** bytes timeouts skipped thanks to SACK *)
  timeouts : int;  (** retransmission-timer expiries *)
  fast_retransmits : int;  (** duplicate-ack hole resends *)
  sacked_segments : int;  (** segments covered by received SACK blocks *)
  ce_echoes : int;  (** acks received with the CE-echo bit *)
  delivered : int;  (** messages delivered to applications *)
  reestablishments : int;  (** channels re-created after teardown *)
  peer_reboots : int;  (** newer-epoch frames noticed from known peers *)
  stale_epoch_drops : int;  (** older-epoch frames rejected *)
  acks_deferred : int;  (** ack batching stretched under pool pressure *)
  (* NIC *)
  pool_drops : int;  (** ingress frames shed at the pool's hard watermark *)
  bad_fcs : int;  (** corrupted frames dropped by the MAC *)
  tx_paused_ns : int;  (** time transmitters spent XOFFed *)
  slow_extra_ns : int;  (** service time added by fail-slow NICs *)
  (* driver *)
  poll_switches : int;  (** IRQ <-> polling mode transitions *)
  polled : int;  (** packets processed by budgeted poll passes *)
  (* switch *)
  ingress_drops : int;  (** frames lost at full bounded uplink FIFOs *)
  egress_drops : int;  (** frames tail-dropped at egress *)
  switch_pause_tx : int;  (** PAUSE frames the switches generated *)
  ecn_marks : int;  (** frames CE-marked *)
  trunk_frames : int;  (** frames carried switch-to-switch *)
  egress_stall_ns : int;  (** egress pump time lost to injected stalls *)
  peak_buffer : int;
      (** largest peak shared-buffer occupancy of any switch, bytes
          (combined with [max], not summed) *)
  (* node *)
  crashes : int;
}

val zero : t

val add : t -> t -> t
(** Field-wise sum, except [peak_buffer], which takes the larger. *)

val boot : Node.t -> t
(** The node's current boot: its CLIC kernel, NICs and drivers.  The
    switch fields and [crashes] are zero. *)

val net : Net.t -> t
(** Every node's current boot, plus every node's crash count, plus every
    switch. *)

val switch_drops : t -> int
(** [ingress_drops + egress_drops]. *)
