(** Blocking-style simulation processes, built on OCaml effect handlers.

    A process is ordinary OCaml code that may call {!delay}, {!await} or
    {!fork}; those suspend the current computation (capturing a one-shot
    continuation) and hand control back to the event loop.  This lets
    protocol and OS models read like the sequential kernel code they model.

    All operations below must be called from within a process started with
    {!spawn} (or from code that was itself resumed by the engine); calling
    them outside a handler raises [Effect.Unhandled]. *)

val spawn : Sim.t -> ?delay:Time.span -> (unit -> unit) -> unit
(** [spawn sim f] schedules process [f] to start [delay] (default 0) from
    now.  Exceptions escaping [f] propagate out of {!Sim.run}. *)

val delay : Time.span -> unit
(** Suspends the calling process for the given simulated duration. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] suspends the caller; [register] receives a [resume]
    function that must be called exactly once (at a later event) to wake the
    process with a value.  Calling [resume] a second time raises
    [Invalid_argument]. *)

val fork : (unit -> unit) -> unit
(** Starts a sibling process at the current instant and keeps running the
    caller.  The forked body runs when the caller next suspends (it is
    scheduled as a zero-delay event). *)
