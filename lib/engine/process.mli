(** Blocking-style simulation processes, built on OCaml effect handlers.

    A process is ordinary OCaml code that may call {!delay}, {!wait_in}
    or {!await}; those suspend the current computation (capturing a
    one-shot continuation) and hand control back to the event loop.  This
    lets protocol and OS models read like the sequential kernel code they
    model.

    Processes run only inside their simulator's run loop ({!Sim.run},
    {!Sim.run_n}, {!Sim.run_until}): a suspension posts its wakeup to
    {!Sim.running}, the simulator dispatching the current event, so a
    continuation resumed outside any run cannot suspend again.  The
    blocking operations must be called from within a process started with
    {!spawn} (or from code that was itself resumed by the engine); calling
    them outside a handler raises [Effect.Unhandled]. *)

val spawn : Sim.t -> ?delay:Time.span -> (unit -> unit) -> unit
(** [spawn sim f] schedules process [f] to start [delay] (default 0) from
    now: the event is [f] itself ({!Sim.start}).  Exceptions escaping [f]
    propagate out of {!Sim.run}. *)

val delay : Time.span -> unit
(** Suspends the calling process for the given simulated duration.  Its
    continuation waits in the simulator's event arena, so a delay
    allocates only the continuation. *)

val wait_in : Sim.waiter Ring.t -> unit
(** [wait_in ring] suspends the caller and pushes its continuation onto
    [ring], a FIFO of waiting processes (make one with {!Ring.empty}).
    Whoever takes it resumes it once, with {!wake}, at a later event; the
    caller then resumes inside that call.  The wait allocates only the
    continuation. *)

val wake : Sim.waiter Ring.t -> unit
(** Pops the first waiting process off the ring and resumes it; it runs
    until it next suspends or ends, then [wake] returns.
    @raise Invalid_argument when the ring is empty. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] suspends the caller; [register] receives a [resume]
    function that must be called exactly once (at a later event) to wake the
    process with a value.  Calling [resume] a second time raises
    [Invalid_argument]. *)

val fork : (unit -> unit) -> unit
(** Starts a sibling process at the current instant on {!Sim.running} and
    keeps running the caller.  The forked body runs when the caller next
    suspends (it is scheduled as a zero-delay event).
    @raise Invalid_argument outside any run. *)
