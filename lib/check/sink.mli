(** The probe sink of every checked run, shared by {!Check} and {!Soak}.

    One stream of probe events drives the lifecycle sanitizer, the
    invariant monitors and, when given, a determinism hash.  The
    sanitizer and the hash see every event.  Each monitor sees
    [Sim_start] and the kinds it declares in
    {!Invariants.monitor.reads}, through a table indexed by
    {!Engine.Probe.Kind.index} and built once per sink, so an event no
    monitor reads costs one lookup.  For any event, the monitors that
    fire report in {!Invariants.create_all} order. *)

type t

val create : ?trace:Determinism.t -> unit -> t
(** Fresh lifecycle sanitizer, leak check on ({!Lifecycle.create}), and
    fresh monitors; [trace], when given, is fed every event too. *)

val on_event : t -> Engine.Probe.event -> unit
(** The function to {!Engine.Probe.install}. *)

val now : t -> int
(** Simulation time of the latest [Clock] event; 0 after [Sim_start]. *)

val finish : t -> Violation.t list
(** Ends the run: the lifecycle findings ({!Lifecycle.finish}), then the
    invariant findings in the order they were found. *)

val notes : t -> string list
(** {!Lifecycle.notes} of the run. *)
