(** One driver per paper artefact: each builds fresh clusters, runs the
    benchmark procedure, prints the series/table the paper reports, and
    returns the data for programmatic checks.

    [quick] mode uses fewer sizes and repetitions (used by tests); default
    mode regenerates the full figures. *)

open Engine

val fig4 : ?quick:bool -> Format.formatter -> Stats.Series.t list
(** CLIC bandwidth for MTU {1500, 9000} × {0-copy, 1-copy}. *)

val fig5 : ?quick:bool -> Format.formatter -> Stats.Series.t list
(** CLIC vs TCP/IP at both MTUs (0-copy for CLIC). *)

val fig6 : ?quick:bool -> Format.formatter -> Stats.Series.t list
(** CLIC, MPI-CLIC, MPI(TCP) and PVM(TCP) bandwidths (MTU 9000). *)

type stage = { stage : string; a_us : float; b_us : float }

type fig7_result = {
  stages : stage list;
  latency_a_us : float;  (** end-to-end one-way, stock path *)
  latency_b_us : float;  (** with the Figure 8b direct-ISR improvement *)
}

val fig7 : Format.formatter -> fig7_result
(** Per-stage timing of a 1400-byte packet, stock vs direct-from-ISR. *)

type fig7_stages = {
  module_tx_us : float;  (** CLIC_MODULE send-side work *)
  driver_tx_us : float;  (** driver transmit routine *)
  transit_us : float;  (** buses + wire + switch + interrupt dispatch *)
  isr_us : float;  (** interrupt service routine (driver part) *)
  bottom_half_us : float;  (** bottom half, driver part *)
  module_rx_us : float;  (** CLIC_MODULE receive work + copy to user *)
  total_us : float;  (** one-way total *)
}

val fig7_stages :
  module_tx:float ->
  driver_tx:float ->
  isr:float ->
  bottom_half:float ->
  module_rx:float ->
  total:float ->
  fig7_stages
(** Figure 7's stage split from measured stage times in us: [isr] and
    [bottom_half] are the driver stages' whole times.  The module's
    receive work nests inside the driver stage that ran its upcall, so it
    comes out of the bottom half when [bottom_half > 0] and out of the
    ISR otherwise (direct-from-ISR mode), floored at 0.  Transit is what
    the five host stages leave of [total], floored at 0.  {!fig7} and
    the per-message attribution ([Obs.Attribution]) both split this
    way. *)

type scalar = { name : string; paper : float; measured : float }

val tab1 : ?quick:bool -> Format.formatter -> scalar list
(** The headline numbers: latency, asymptotes, ratios, half-bandwidth
    points — paper vs measured. *)

val half_bandwidth_size : (float * float) list -> float
(** [half_bandwidth_size points] is the smallest message size at which
    the bandwidth reaches half that of the last point.  [points] are
    (size, bandwidth) pairs in ascending size order.  Between two
    measured points the size is interpolated in log-size space; when the
    first point already reaches half, it is that point's size.  [0.] for
    no points. *)

val fig1 : ?quick:bool -> Format.formatter -> (string * float * float) list
(** Data-path ablation (paths 1-4): (path, 0-byte latency us, 1 MB
    bandwidth Mbit/s) at MTU 1500. *)

val sec2 : Format.formatter -> (string * float * float * float) list
(** Interrupt-coalescing sweep: (setting, bandwidth Mbit/s, interrupts per
    packet, receiver CPU fraction) for saturated streams at both MTUs. *)

type rival_row = {
  r_name : string;
  r_latency_us : float;
  r_bw_mbps : float;
  r_idle_cpu : float;
      (** receiver CPU fraction while waiting on a quiet link *)
}

val sec3 : Format.formatter -> rival_row list
(** The Section 3.2 design-space comparison: CLIC vs a GAMMA-like
    replaced-driver active-port system vs a VIA-like user-level polling
    interface, on identical simulated hardware (except GAMMA's 64-bit
    PCI card, per the paper's GA620 numbers). *)

val ext1 : Format.formatter -> (string * float * float) list
(** NIC-side fragmentation ablation at MTU 1500: (config, bandwidth,
    receiver interrupts per 32 KB message). *)

val ext2 : Format.formatter -> (string * float) list
(** Channel bonding: stream bandwidth with 1 vs 2 NICs. *)

val ext3 : ?nodes:int -> Format.formatter -> (string * float) list
(** Broadcast of 64 KB to [nodes-1] peers: completion time (us) for CLIC
    hardware broadcast vs MPI-TCP binomial tree. *)

val ext4 : Format.formatter -> (string * Engine.Time.span list) list
(** Multiprogramming: 64-byte CLIC ping-pong latency samples on an idle
    node vs a node concurrently moving bulk TCP data ("idle"/"loaded"). *)

val stress : Format.formatter -> (string * int * int * float * int) list
(** Synthetic workloads (uniform random, incast) on clean and 2%-lossy
    networks: (name, sent, delivered, MB, retransmissions).  Exactly-once
    delivery must hold in every row. *)

type chaos_row = {
  c_name : string;
  c_latency_us : float;  (** 1 KB ping-pong one-way under the fault *)
  c_goodput_mbps : float;  (** stream goodput *)
  c_elapsed_ms : float;  (** stream completion time *)
  c_tally : Cluster.Tally.t;  (** the stream cluster's counters *)
  c_rto_mean_us : float;  (** mean armed RTO on the stream sender *)
  c_rto_max_us : float;  (** largest armed RTO (shows backoff) *)
}

val chaos : ?quick:bool -> Format.formatter -> chaos_row list
(** Reliability sweep: uniform loss rates, Gilbert–Elliott bursty loss,
    duplication + delay jitter, and periodic link flaps, each driving a
    ping-pong and a saturation stream.  Every profile must complete — the
    sweep exists to show the adaptive RTO, fast retransmit and teardown
    logic keep the transport live under abuse. *)

type flow_control = [ `Tail_drop | `Pause ]
(** The two answers the incast and fabric panels compare: capped egress
    FIFOs that shed load, or 802.3x PAUSE end to end. *)

type regime = [ flow_control | `Ecn ]
type topo = [ `Incast | `Cross_rack ]
type scheme = [ `Go_back_n | `Sack ]

val flow_control_name : flow_control -> string
val regime_name : regime -> string
val topo_name : topo -> string
val scheme_name : scheme -> string

val congestion_config :
  regime:[ `Tail_drop | `Pause | `Ecn ] ->
  scheme:[ `Go_back_n | `Sack ] ->
  Cluster.Node.config
(** The congested fabric every incast, fabric and matrix panel runs on:
    bounded 6-frame uplinks, server-class PCI, congestion-tuned CLIC,
    under one of three congestion answers.  [`Tail_drop] keeps capped
    12-frame egress FIFOs and blind-dumping NICs; [`Pause] runs 802.3x end
    to end, provisioned for zero switch loss; [`Ecn] uncaps the egress,
    marks CE above the shared-buffer threshold with PAUSE generation off,
    and turns the CLIC senders into DCTCP (the NICs stay flow-control
    capable so they respect uplink backpressure instead of
    blind-dumping). *)

type run = {
  sent : int;
  delivered : int;
  elapsed_ms : float;
  tally : Cluster.Tally.t;  (** the cluster's counters when the run drained *)
}
(** The summary every congested-fabric row shares; a row adds only its
    key and what a cluster-wide sum cannot express. *)

type incast_row = { in_regime : flow_control; in_run : run }

type gather_row = {
  ga_regime : flow_control;
  ga_completion_us : float;  (** when the last rank finished *)
  ga_tally : Cluster.Tally.t;
}

val incast :
  ?quick:bool -> Format.formatter -> incast_row list * gather_row list
(** N→1 incast collapse (4 senders x 8 KB messages onto node 0),
    tail-drop vs 802.3x PAUSE, plus an MPI gather under the same
    congestion.  Every message must be delivered in every condition; with
    PAUSE the switch must lose nothing at all. *)

type fabric_row = {
  fb_regime : flow_control;
  fb_run : run;
  fb_spine_pause : int;  (** PAUSE frames the spine generated (XOFFs ToRs) *)
  fb_tor_pause : int;  (** PAUSE frames the ToRs generated (XOFF senders) *)
}

type reroute_row = {
  rr_run : run;
  rr_spine0_tx : int;  (** tor0 trunk frames toward the spine that dies *)
  rr_spine1_tx : int;  (** toward the survivor *)
  rr_down_drops : int;  (** frames the dead spine refused *)
}

val fabric :
  ?quick:bool -> Format.formatter -> fabric_row list * reroute_row
(** Cross-rack congestion panel: six remote senders incast node 0 through
    a one-spine leaf/spine (3 Gb/s per remote ToR into 1 Gb/s uplinks),
    tail-drop vs 802.3x PAUSE — the collapse a star cannot express — then
    a 2-spine ECMP fabric loses a spine mid-workload and must deliver
    everything over the survivor.  Under PAUSE the congestion tree must
    form hop by hop (spine XOFFs ToRs, ToRs XOFF senders) with zero
    switch loss. *)

type congestion_cell = {
  cg_regime : regime;
  cg_topo : topo;
  cg_scheme : scheme;
  cg_run : run;
}

type bursty_row = { bu_scheme : scheme; bu_run : run }

val congestion_matrix :
  ?quick:bool -> Format.formatter -> congestion_cell list * bursty_row list
(** The robustness matrix: {tail-drop, PAUSE, ECN/DCTCP} × {incast star,
    cross-rack leaf/spine} × {go-back-N, SACK} incast runs, then a
    same-seed Gilbert–Elliott bursty-loss stream comparing the two
    retransmit schemes byte for byte.  Contract: every cell delivers all
    messages; ECN cells lose nothing at the switch and never emit a PAUSE
    frame while marking CE; under identical bursty weather the SACK run
    retransmits strictly fewer bytes than go-back-N. *)

type system = [ `Clic | `Tcp ]
type condition = [ `Healthy | `Fail_slow | `Fail_slow_loss ]

val condition_name : condition -> string

type slo_row = {
  sl_system : system;
  sl_condition : condition;
  sl_requests : int;
  sl_completed : int;
  sl_stranded : int;  (** requests never answered when the run drained *)
  sl_timeouts : int;  (** completions slower than the 1 ms deadline *)
  sl_p50_us : float;
  sl_p99_us : float;
  sl_p999_us : float;
  sl_goodput_mbps : float;
}

val slo : ?quick:bool -> Format.formatter -> slo_row list
(** CLIC vs TCP serving the same seeded open-loop request-response
    workload (4 nodes, Poisson arrivals) under three conditions:
    healthy; fail-slow (links sag to an eighth of their rate for a
    mid-run window, two NICs serve 6x slower, one switch port stalls
    its egress pump); and fail-slow plus 0.5% random frame loss.  The gray window
    drops nothing by itself, so the damage is visible only in the
    latency tail — six rows of p50/p99/p999 and goodput. *)
