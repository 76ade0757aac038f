(** Captures a scenario's full probe stream for the exporters.

    A recorder is a plain {!Engine.Probe} sink: every event is stamped
    with the simulation time current at emission and appended to two
    growable flat arrays, stamps and events.  The timeline, metrics and
    attribution passes are pure functions over the recording, read through
    {!iter}, so one run feeds all three. *)

type stamped = { at : int; ev : Engine.Probe.event }

type t

val iter : t -> (int -> Engine.Probe.event -> unit) -> unit
(** [iter t f] calls [f at ev] on every recorded event, in emission order,
    with its stamp [at] (ns).  It allocates nothing of its own. *)

val events : t -> stamped list
(** Recorded events, in emission order, as a freshly built list for callers
    that want one; {!iter} reads the recording without copying it. *)

val count : t -> int

val horizon : t -> int
(** Largest simulation time seen (ns), including span finish times. *)

val record : Check.Scenario.t -> t * string
(** Run one scenario with a fresh recorder installed; returns the
    recording and the scenario's rendered report text.  Replaces any
    installed probe sink for the duration (probe state is
    process-global), restoring the unprobed state afterwards. *)
