(** Linux-style bottom halves (deferred interrupt work).

    An ISR queues work here and returns quickly; the bottom-half pump runs
    the queued thunks in order, at interrupt priority on the CPU but only
    after a dispatch delay (the kernel's do_bottom_half walk the paper's
    Figure 8a shows between the driver ISR and CLIC_MODULE).  This is the
    stage the paper's proposed improvement (Figure 8b) removes by calling
    the protocol module directly from the ISR. *)

open Engine

type t

val create : Sim.t -> cpu:Cpu.t -> ?dispatch_latency:Time.span -> unit -> t
(** Default dispatch latency: 1 us. *)

val schedule : t -> (unit -> unit) -> unit
(** Enqueue a thunk; thunks run FIFO.  The thunk should charge its CPU work
    at [`High] priority. *)

val executed : t -> int
