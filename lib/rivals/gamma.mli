(** A GAMMA-like active-port protocol (Chiola & Ciaccio), the rival the
    paper's Section 5 compares CLIC against.

    GAMMA takes the opposite trade to CLIC on two axes (paper §3.2):

    - it {e replaces} the NIC driver with its own, so receive processing
      runs directly in a trimmed ISR — no bottom half, no generic sk_buff
      handling (run it on a cluster configured with {!driver_params});
    - it enters the kernel through {e lightweight system calls} that skip
      the return-path scheduler invocation.

    Messages land on {e active ports}: a registered handler runs at
    interrupt level as the data is written straight into the receiving
    process's memory — which is what makes GAMMA fast, and also what ties
    it to one process per port and to its own drivers (the portability
    cost CLIC refuses to pay).  Reliability is a go-back-N flow-control
    layer, as in the MPICH-over-GAMMA port; it reuses CLIC's channel
    machinery with GAMMA-tight parameters.

    The paper quotes GAMMA at 32 µs latency and ~800 Mbit/s on the 64-bit
    GA620 NIC; the sec3 experiment configures the cluster accordingly
    (64-bit PCI). *)

open Proto

type t

type message = { gm_src : int; gm_port : int; gm_bytes : int }

val driver_params : Os_model.Driver.params
(** The replaced driver: direct-from-ISR dispatch, minimal per-packet
    costs, no per-byte sk_buff staging. *)

val create : Hostenv.t -> Ethernet.t -> t
(** Registers the GAMMA ethertype on the attachment. *)

val bind_port : t -> port:int -> (message -> unit) -> unit
(** Active-port handler; runs at interrupt level after the data has been
    written to the process's memory.  One handler per port.
    @raise Invalid_argument on a duplicate port. *)

val send : t -> dst:int -> port:int -> int -> unit
(** Lightweight-syscall send; blocks only on the flow-control window. *)

val recv : t -> port:int -> message
(** Convenience blocking receive built on an active handler: binds the
    port on first use and parks the caller until a message lands. *)
