(** Process-global instrumentation hub for the analysis layer.

    Simulation components report lifecycle and protocol events here.  With
    no sink installed (the default) an emission costs one flag test; the
    checker in [lib/check] installs a sink for the duration of a scenario
    run.  Emission sites should guard event construction with {!enabled}
    so that the disabled path does not allocate:

    {[ if Probe.enabled () then Probe.emit (Probe.Clock { now }) ]} *)

type owner =
  | App  (** user memory / the application side *)
  | Channel  (** protocol- or kernel-owned staging *)
  | Driver
  | Bh  (** bottom-half context *)
  | Nic  (** NIC ring ownership *)

type obj_kind = Skb | Rx_buffer

type track =
  | Process  (** work charged in a process/syscall context *)
  | Isr  (** interrupt service routine *)
  | Bh_track  (** bottom-half (softirq) context *)
  | Module  (** CLIC_MODULE receive-side work (runs in ISR/BH context) *)
  | Dma  (** a DMA engine moving bytes over the I/O bus *)
  | Link  (** a wire occupied by a frame's serialization *)
  | Pause_t  (** an interval a transmit path spent gated by 802.3x PAUSE *)
  | Busy  (** raw resource occupancy (CPU / bus grants) *)

type event =
  | Sim_start  (** a fresh simulator was created: per-sim state resets *)
  | Clock of { now : int }  (** an event fired at [now] (ns) *)
  | Span of {
      host : string;  (** resource name: "cpu0", "nic0.1", a link name *)
      track : track;
      label : string;
      start : int;
      finish : int;
    }
      (** a completed activity interval (ns), reported at [finish].  The
          observability layer ([lib/obs]) renders these as timeline slices
          and derives utilization metrics from them. *)
  | Sched_run of { host : string }
      (** the scheduler woke a blocked process on this CPU *)
  | Sched_block of { host : string }
      (** a process blocked waiting on this CPU's scheduler *)
  | Irq of { host : string }  (** a NIC asserted its interrupt line *)
  | Queue_depth of { queue : string; depth : int }
      (** instantaneous occupancy of a named queue (NIC rx ring, switch
          egress buffer) after a push/pop *)
  | Msg_send of {
      node : int;
      dst : int;
      port : int;
      msg_id : int;
      bytes : int;
      epoch : int;
    }
      (** a message entered the send syscall; pairs with [Msg_deliver] for
          flow arrows and per-message latency attribution.  [epoch] is the
          sender's boot epoch: message ids restart from 0 after a reboot,
          so at-most-once delivery is keyed on (src, epoch, msg_id). *)
  | Obj_alloc of {
      kind : obj_kind;
      id : int;
      bytes : int;
      owner : owner;
      where : string;
    }
  | Obj_transfer of { kind : obj_kind; id : int; owner : owner; where : string }
  | Obj_free of { kind : obj_kind; id : int; where : string }
  | Pool_alloc of { pool : string; bytes : int; used : int; capacity : int }
  | Pool_free of { pool : string; bytes : int; used : int }
  | Ivar_fill of { id : int }
  | Sem_create of { id : int; permits : int }
  | Sem_acquire of { id : int; n : int; permits : int }
      (** [permits] is the count {e after} the acquire *)
  | Sem_release of { id : int; n : int; permits : int }
  | Ack_tx of { chan : int; node : int; peer : int; cum_seq : int }
  | Ack_rx of { chan : int; node : int; peer : int; cum_seq : int }
  | Snd_una of { chan : int; node : int; peer : int; snd_una : int }
  | Window of {
      chan : int;
      node : int;
      peer : int;
      outstanding : int;
      limit : int;
    }
  | Chan_deliver of { chan : int; node : int; peer : int; seq : int }
  | Chan_dead of { chan : int; node : int; peer : int }
  | Msg_deliver of {
      node : int;
      src : int;
      port : int;
      msg_id : int;
      epoch : int;
    }
  | Msg_recv of { node : int; src : int; port : int; msg_id : int; epoch : int }
      (** the receiving process took the message out of its port queue and
          the copy to user memory finished — the end of the message's
          latency window for the attribution pass (the syscall return is a
          fixed cost later) *)
  | Rto_armed of {
      chan : int;
      node : int;
      peer : int;
      rto_ns : int;
      lo_ns : int;
      hi_ns : int;
    }
  | Rx_poll_mode of { host : string; polling : bool }
      (** the driver switched rx servicing between per-packet interrupts
          ([polling = false]) and a NAPI-style budgeted polling loop
          ([polling = true]) *)
  | Poll_pass of { host : string; processed : int; budget : int }
      (** one polling pass completed; [processed <= budget] always *)
  | Pool_pressure of { pool : string; level : int }
      (** a kernel pool crossed a watermark: 0 = normal, 1 = above the
          soft mark, 2 = at/above the hard mark *)
  | Tx_wire of { host : string }
      (** a pause-aware NIC pushed a data frame onto its uplink; the
          no-transmit-while-paused monitor correlates these with
          [Pause_state] *)
  | Pause_state of { host : string; paused : bool }
      (** a transmit path entered/left the 802.3x paused state *)
  | Pause_frame of { host : string; sent : bool; quanta : int }
      (** a MAC-control PAUSE frame left ([sent]) or reached a station;
          [quanta] in 512-bit-time units, 0 = XON *)
  | Switch_buffer of {
      switch : string;
      port : int;  (** egress port (node id) the frame is queued for *)
      delta : int;  (** +bytes admitted / -bytes released *)
      occupied : int;  (** shared-pool bytes in use after the delta *)
      total : int;  (** pool capacity *)
    }
      (** the shared-buffer ledger moved; the ledger-balance monitor
          replays these *)
  | Switch_drop of {
      switch : string;
      port : int;
      ingress : bool;  (** true = uplink FIFO tail-drop, false = egress
                           buffer admission failure *)
      protected : bool;
          (** the switch was provisioned so that PAUSE should have made
              this drop impossible — any such drop is an invariant
              violation *)
    }
  | Ecn_mark of { switch : string; port : int; occupied : int; threshold : int }
      (** a switch set a frame's CE bit: the egress port's backlog
          ([occupied], including the frame itself) was at or above the
          configured [threshold] at enqueue — the CE-honesty monitor
          convicts marks where it was not *)
  | Sack_tx of { chan : int; node : int; peer : int; blocks : (int * int) list }
      (** a receiver advertised SACK blocks (absolute half-open
          [[start, stop)] ranges) on an outgoing ack *)
  | Sack_rx of { chan : int; node : int; peer : int; blocks : (int * int) list }
      (** a sender processed SACK blocks from an incoming ack *)
  | Chan_retx of { chan : int; node : int; peer : int; seq : int }
      (** a sender queued segment [seq] for retransmission (RTO or fast
          retransmit); the SACK monitor convicts retransmissions of
          still-SACKed segments *)
  | Gray_fault of { host : string; mode : string; active : bool }
      (** a fail-slow (gray) failure engaged ([active = true]) or cleared
          on [host]: [mode] is ["link-brownout"], ["nic-slow"] or
          ["switch-stall"].  SLO monitors use these edges to split latency
          samples into healthy / degraded / recovery phases, and the
          gray-soak demands evidence that each mode actually fired *)

val on : bool ref
(** True iff a sink is installed.  Hot emit sites read this directly —
    [if !Probe.on then Probe.emit ...] — so an uninstrumented run pays one
    load-and-test per site instead of an option dereference.  Treat as
    read-only: it is maintained by {!install}/{!uninstall}. *)

val enabled : unit -> bool
(** [!on], for call sites off the hot path. *)

val emit : event -> unit

val install : (event -> unit) -> unit
(** At most one sink; a second [install] replaces the first.  The sink runs
    synchronously inside the emitting component — it must not schedule
    simulation work. *)

val uninstall : unit -> unit

val owner_name : owner -> string
val kind_name : obj_kind -> string
val track_name : track -> string
