(** A host processor.

    A thin specialization of {!Engine.Resource} with two priority levels:
    interrupt-context work ([`High]: ISRs, bottom halves) and task-context
    work ([`Low]: system calls, protocol processing, user code).  Copies
    performed by the CPU also occupy the memory bus, so they steal memory
    bandwidth from concurrent DMA — one of the paper's stated costs of extra
    data copies. *)

open Engine

type t

val create : Sim.t -> name:string -> ?copy_bytes_per_s:float -> unit -> t
(** [copy_bytes_per_s] is the effective memory-copy rate of kernel copy
    routines on cache-cold data (default 300 MB/s, typical of the paper's
    1.5 GHz PC era). *)

val name : t -> string
val resource : t -> Resource.t

val work : ?priority:Resource.priority -> t -> Time.span -> unit
(** Occupies the CPU for the span (blocking; default task priority). *)

val work_sliced :
  ?priority:Resource.priority -> ?quantum:Time.span -> t -> Time.span -> unit
(** Like {!work}, but released and re-acquired every [quantum] (default
    50 us): models the kernel's preemption points, letting interrupt work
    and other tasks interleave with long computations.  {!copy} slices
    implicitly. *)

val copy :
  ?priority:Resource.priority -> ?bytes_per_s:float -> t -> membus:Bus.t ->
  int -> unit
(** [copy cpu ~membus n] models a CPU memory-to-memory copy of [n] bytes:
    the CPU is held for [n / rate] while [2n] bytes cross the memory bus
    concurrently.  [bytes_per_s] overrides the CPU's default copy rate. *)

val utilization : t -> since:Time.t -> float
val reset_stats : t -> unit
