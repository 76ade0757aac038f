(** Kernel timers (retransmission, delayed ACKs, coalescing holdoffs).

    A thin, cancellable one-shot wrapper over the simulator clock,
    mirroring the add_timer/del_timer kernel API the modelled protocols
    use. *)

open Engine

type t

val after : Sim.t -> Time.span -> (unit -> unit) -> t
(** Arms a one-shot timer. *)

val cancel : t -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)
