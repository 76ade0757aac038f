(** Captures a scenario's full probe stream for the exporters.

    A recorder is a plain {!Engine.Probe} sink: every event is stamped
    with the simulation time current at emission and buffered.  The
    timeline, metrics and attribution passes are pure functions over the
    recording, so one run feeds all three. *)

type stamped = { at : int; ev : Engine.Probe.event }

type t

val events : t -> stamped list
(** Recorded events, in emission order. *)

val count : t -> int

val horizon : t -> int
(** Largest simulation time seen (ns), including span finish times. *)

val record : Check.Scenario.t -> t * string
(** Run one scenario with a fresh recorder installed; returns the
    recording and the scenario's rendered report text.  Replaces any
    installed probe sink for the duration (probe state is
    process-global), restoring the unprobed state afterwards. *)
