(** Collectives over the two stacks: broadcast, gather and allreduce.

    CLIC is built directly on the Ethernet data-link layer and inherits
    its hardware multicast/broadcast: one transmission reaches every node,
    confirmed by tiny per-receiver acknowledgements.  An MPI-over-TCP
    broadcast has no such primitive and forwards point-to-point along a
    binomial tree.  The [ext3] experiment compares the two.  Gather and
    allreduce run over MPI point-to-point on either transport. *)

val clic_bcast_root :
  Clic.Api.t -> peers:int list -> port:int -> int -> unit
(** Broadcast [n] bytes from this node and block until every peer's
    confirmation message arrives (run in a process on the root). *)

val clic_bcast_peer : Clic.Api.t -> root:int -> port:int -> unit
(** Receive one broadcast and confirm it (run on each peer). *)

val mpi_bcast : Mpi.t -> rank:int -> root:int -> size:int -> int -> unit
(** Binomial-tree broadcast of [n] bytes over MPI point-to-point; call on
    every rank with the world [size]. *)

val gather : Mpi.t -> rank:int -> root:int -> size:int -> int -> unit
(** Linear gather of [n] bytes per rank to [root]. *)

val allreduce : Mpi.t -> rank:int -> size:int -> int -> unit
(** Ring allreduce over an [n]-byte buffer: 2(size-1) pipelined
    chunk exchanges; models the communication only. *)
