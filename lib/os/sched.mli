(** Task blocking and wakeup through the OS scheduler.

    CLIC deliberately uses full system calls (not the lightweight calls of
    GAMMA) so that the scheduler runs on return to user mode: when several
    messages are pending, letting the scheduler pick the right process
    serves them faster.  This module charges that choice's costs: a blocked
    receiver is woken by kernel code (ISR, bottom half or protocol module),
    paying a wakeup/context-switch cost on the CPU before the task resumes.

    A wait slot is single-use; create one per blocking occasion. *)

type t

val create : Cpu.t -> t
(** Each wakeup charges a 1 us context switch on the waker's CPU. *)

type slot

val slot : t -> slot

val wait : slot -> unit
(** Blocks the calling process until {!wake}.  If {!wake} already happened,
    returns after the switch cost only.  @raise Invalid_argument if the slot
    is already being waited on. *)

val wake : slot -> unit
(** Marks the slot runnable and charges the wakeup cost on the waker's CPU
    (at its current context's priority — callers in interrupt context pass
    work through anyway).  Waking an already-woken slot is a no-op. *)

val switches : t -> int
