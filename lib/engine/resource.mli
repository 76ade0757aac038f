(** A serially-reusable resource with two priority classes and utilization
    accounting.

    Models anything that serves one request at a time: a CPU, a bus, a DMA
    engine.  Requests are served FCFS within a class; the [`High] class (used
    for interrupt-level work on CPUs) always wins over [`Low] when the
    resource frees up.  Service is non-preemptive — an in-progress grant runs
    to completion, which matches the microsecond-scale work quanta of the
    modelled system.

    Busy time is accumulated so utilization over any measurement window can
    be reported (the paper's "CPU use" figures). *)

type t
type priority = [ `High | `Low ]

val create : Sim.t -> name:string -> t

val use : ?priority:priority -> t -> Time.span -> unit
(** [use r span] blocks the calling process until granted, then occupies the
    resource for [span] and releases it.  Zero-length spans still round-trip
    through the queue (preserving FCFS ordering). *)

val use_f : ?priority:priority -> t -> (unit -> 'a) -> 'a
(** [use_f r f] grants the resource, runs [f] (which may {!Process.delay} to
    model service time and returns a value), then releases.  The time spent
    inside [f] is accounted as busy time. *)

val is_busy : t -> bool

(** {1 Accounting} *)

val busy_time : t -> Time.span
(** Total busy time since creation (or since the last {!reset_stats}). *)

val grants : t -> int
val reset_stats : t -> unit

val utilization : t -> since:Time.t -> float
(** Fraction of wall-clock busy in [\[since, now\]]; requires stats reset at
    or before [since] for an exact figure. *)
