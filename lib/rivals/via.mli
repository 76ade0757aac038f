(** A VIA-style user-level interface (Virtual Interface Architecture),
    the other design point the paper's Section 3.2 contrasts CLIC with.

    VIA removes the operating system from the data path entirely:

    - a process opens a {e virtual interface} (VI) to each peer, with a
      send queue and a receive queue of descriptors in user memory;
    - sending posts a descriptor and rings a doorbell — a single
      programmed-I/O write across the PCI bus; no system call, no kernel;
    - receiving {e polls} the completion queue in user memory: no
      interrupts, so the processor burns cycles whenever it waits;
    - the interface is {e unreliable}: like UDP, the application (or a
      library above) must add reliability — this model delivers what the
      lossless simulated switch delivers and nothing more.

    The experiment [sec3] reproduces the trade-off the paper describes:
    VIA's latency undercuts CLIC's (no syscall, no interrupt path), but a
    waiting receiver occupies its whole CPU, where CLIC's blocked
    receiver costs nothing. *)

open Engine
open Proto

type t

type completion = { vi_src : int; vi_bytes : int }

val driver_params : Os_model.Driver.params
(** The "driver" is only a completion-queue writer: the NIC DMAs data and
    completion entries into user memory; no ISR work is charged beyond
    the entry write. *)

val create : Hostenv.t -> Ethernet.t -> ?poll_interval:Time.span -> unit -> t
(** [poll_interval] is the receive-poll period (default 0.1 us: a tight
    user-space spin on the completion queue; each probe costs 0.4 us of
    CPU, so a waiting receiver runs at ~80% utilization). *)

val send : t -> dst:int -> int -> unit
(** Post send descriptors (one per MTU of data) and ring the doorbell for
    each.  Returns when the descriptors are queued. *)

val recv : t -> completion
(** Poll the completion queue until an entry appears (one entry per
    arriving descriptor/MTU), burning CPU at every poll — the cost
    Section 3.2 attributes to VIA's design. *)

val polls : t -> int
(** Number of poll probes executed (each occupies the CPU briefly). *)
