(** The protocol-invariant monitors.

    A monitor is a small state machine fed every probe event; it answers
    with a violation detail when the event breaks its rule.  Monitors
    are registered as constructors so each checker run gets fresh state;
    each monitor resets itself on [Sim_start]. *)

type monitor = {
  name : string;
  on_event : now:int -> Engine.Probe.event -> string option;
      (** [Some detail] when the event violates the rule. *)
}

type ctor = unit -> monitor

val registry : ctor list ref
(** The live registry, initialized with the default monitor set
    (clock monotonicity, ack/snd_una monotone, window bound, in-order
    exactly-once channel delivery, at-most-once app delivery, RTO
    bounds, ivar single-fill, semaphore accounting, poll budget, epoch
    monotone delivery, pool balance, no-tx-while-paused, switch-buffer
    ledger, zero-loss-when-protected, ecn-mark-above-threshold,
    sack-no-spurious-retx).  Exposed so tests can save, replace and
    restore the whole set; prefer {!register} for adding. *)

val register : ctor -> unit
(** Appends a project-specific monitor; see DESIGN.md. *)

val create_all : unit -> monitor list
(** Fresh instances of every registered monitor. *)
