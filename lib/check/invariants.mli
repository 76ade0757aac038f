(** The protocol-invariant monitors.

    A monitor is a small state machine over probe events; it answers with
    a violation detail when an event breaks its rule.  Each monitor
    declares in [reads] the event kinds its rule looks at, and the
    checker's sink ({!Sink}) hands it only those, plus [Sim_start], which
    every monitor receives.  Monitors are kept as constructors so each
    checker run gets fresh state; each monitor resets itself on
    [Sim_start]. *)

type monitor = {
  name : string;
  reads : Engine.Probe.Kind.t list;
      (** The kinds [on_event] acts on, [Sim_start] aside.  [on_event]
          must return [None] and change no state on any other kind: the
          sink never delivers one. *)
  on_event : now:int -> Engine.Probe.event -> string option;
      (** [Some detail] when the event violates the rule. *)
}

val create_all : unit -> monitor list
(** Fresh instances of every monitor: clock monotonicity, ack/snd_una
    monotone, window bound, in-order exactly-once channel delivery,
    at-most-once app delivery, RTO bounds, ivar single-fill, semaphore
    accounting, poll budget, epoch monotone delivery, pool balance,
    no-tx-while-paused, switch-buffer ledger, zero-loss-when-protected,
    ecn-mark-above-threshold, sack-no-spurious-retx. *)
