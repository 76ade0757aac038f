(** The discrete-event simulator core.

    A simulator owns a virtual clock and a queue of timestamped events
    (thunks).  Events scheduled for the same instant fire in scheduling
    order (FIFO), which makes runs fully deterministic.

    Two scheduling tiers exist, over one recycled slot arena.  {!post}
    is the fast path: it returns no handle, so a steady stream of posts
    allocates nothing.  {!schedule} also allocates a small {!handle} for
    later {!cancel}.  Callers routinely retain handles past the event's
    firing, so a handle names its slot with a generation count and
    cannot touch the slot's next occupant.  Prefer [post] anywhere the
    event is never cancelled.

    Higher-level blocking-style code is built on top of this in
    {!Process}. *)

type t

type handle
(** A scheduled event that can still be cancelled. *)

val create : ?tie_break:int -> unit -> t
(** A fresh simulator with the clock at {!Time.zero}.

    [tie_break] seeds a deterministic permutation of same-instant event
    ordering: events scheduled for the same time fire in an order decided
    by a seeded draw instead of FIFO.  Any observable difference between
    runs with different seeds is a hidden ordering race — this hook exists
    for the determinism detector in [lib/check], not for normal use.
    Without it (and with no process default), same-instant events fire in
    scheduling order. *)

val set_default_tie_break : int option -> unit
(** Process-wide default for [tie_break], consulted by {!create} when no
    explicit seed is given.  Used by the checker so that scenarios creating
    simulators internally inherit the permutation; reset it to [None] when
    done. *)

val now : t -> Time.t

val schedule : t -> after:Time.span -> (unit -> unit) -> handle
(** [schedule sim ~after f] arranges for [f ()] to run [after] nanoseconds
    from now.  [after] must be non-negative.
    @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Absolute-time variant; [at] must not be in the past. *)

val post : t -> after:Time.span -> (unit -> unit) -> unit
(** Like {!schedule} but returns no handle, which lets the engine recycle
    the event record through an internal free list: a steady stream of
    posts reaches zero allocations per event.  Use for fire-and-forget
    events (frame arrivals, link updates, process wakeups); anything that
    might need {!cancel} must use {!schedule}. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op.
    Takes effect immediately in {!pending}.  A cancelled entry waits in
    the queue only while cancelled entries do not outnumber live ones: a
    cancel that tips the balance drops them all, in amortised O(1) per
    cancel.  So right after any cancel the queue holds at most twice
    {!pending} entries, however often timers are re-armed. *)

val is_cancelled : handle -> bool

val run : t -> unit
(** Runs events until the queue is empty.  Uncaught exceptions from event
    thunks propagate out of [run] (with the clock left at the failure
    instant). *)

val run_until : t -> limit:Time.t -> unit
(** Runs events with timestamp [<= limit]; the clock is advanced to [limit]
    if the queue drains or only later events remain. *)

val run_n : t -> int -> int
(** [run_n sim n] runs at most [n] events and returns how many actually
    fired (less than [n] only if the queue drained).  The batched-drain
    entry point: callers interleaving simulation with external work (the
    benchmark driver, future incremental UIs) drain bounded bursts
    without paying per-event loop-control overhead at the call site.
    @raise Invalid_argument on a negative count. *)

val pending : t -> int
(** Number of scheduled (non-cancelled) events, for tests/diagnostics.
    Cancelled events leave the count at {!cancel} time. *)

val events_executed : t -> int
(** Total count of events fired since creation. *)

val global_events_executed : unit -> int
(** Process-wide total of events fired across {e all} simulators ever
    created.  Scenario benchmarks use the delta across a run to compute
    events/sec, since scenarios construct their simulators internally. *)
