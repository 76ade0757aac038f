(** The MPI-on-TCP/IP transport (stock LAM-MPI in the paper's Figure 6).

    Each rank listens on a well-known port; pairwise connections are
    established lazily on first send.  Every transport message travels as a
    32-byte envelope header followed by the payload on the byte stream, so
    MPI-TCP inherits the whole TCP/IP cost column — which is why its curve
    sits far below MPI-CLIC.  (Envelope contents ride out-of-band in the
    simulator, paired with the stream's byte counts; see the registry
    comment in the implementation.) *)

type registry
val registry : unit -> registry

val transport : registry -> Proto.Tcp.t -> rank:int -> Mpi.transport
