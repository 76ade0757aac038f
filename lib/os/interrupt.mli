(** The interrupt controller.

    A raised IRQ waits the hardware dispatch latency (PIC/APIC delivery,
    pipeline drain, vectoring — the paper cites PCI 2.1 delays of
    microseconds), then runs its service routine on the CPU at interrupt
    priority, ahead of any queued task-level work.  The ISR itself is
    process code: it performs its per-packet work with {!Cpu.work} and may
    block on buses. *)

open Engine

type t

val create : Sim.t -> cpu:Cpu.t -> ?dispatch_latency:Time.span -> unit -> t
(** Default dispatch latency: 5 us. *)

val raise_irq : t -> isr:(unit -> unit) -> unit
(** Asynchronous: returns immediately; the ISR runs after the dispatch
    latency, serialized with other interrupt-level work on the CPU. *)

val irqs_delivered : t -> int
val time_in_isr : t -> Time.span
