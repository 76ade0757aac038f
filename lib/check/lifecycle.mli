(** The object-lifecycle sanitizer.

    Reconstructs an ownership state machine for every kernel object the
    simulation reports to {!Engine.Probe} (SK_BUFFs, NIC ring buffers,
    byte-accounted staging pools) and flags use-after-free, double-free,
    and — when [leak_check] is on — objects or pool bytes still
    outstanding at a simulation boundary.  All state (object tables,
    histories, pool accounting) is internal. *)

type t

val create : leak_check:bool -> unit -> t
(** [leak_check:false] reports use-after-free and double free but no
    leaks.  Every checked run and soak trial leak-checks, through
    {!Sink.create}; the argument stays because the bench harness
    ([benchsuite/suite.ml]) passes [~leak_check:true]. *)

val on_event : t -> Engine.Probe.event -> unit

val finish : t -> Violation.t list
(** Ends the pass: the final simulation's survivors are leaks too.
    Findings are sorted by time. *)

val notes : t -> string list
(** Non-fatal observations: peak live objects and per-pool high-water
    marks. *)
