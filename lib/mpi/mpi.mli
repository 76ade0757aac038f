(** MPI point-to-point semantics over a pluggable transport.

    The paper layers LAM-MPI over both CLIC (MPI-CLIC) and TCP/IP (the
    stock LAM) and compares them in Figure 6.  This module implements the
    part those curves exercise: standard-mode send/receive with
    (source, tag) matching, an eager protocol for small messages and a
    rendezvous protocol (RTS/CTS) above a threshold, plus the library's
    own per-call overhead (3 us per send or receive) and 32-byte
    envelopes.  Messages above 16 KB use rendezvous, and an eager message
    that arrives before its receive is posted is copied once more, out of
    a bounce buffer.  One non-blocking receive serves the collectives
    ({!Collectives}).

    Transports ({!Mpi_clic}, {!Mpi_tcp}) move envelopes and payload bytes
    between ranks; envelope metadata rides out-of-band in the simulator
    while its cost travels with the message bytes. *)

type envelope = {
  e_src : int;
  e_tag : int;
  e_bytes : int;  (** application payload size *)
  e_kind : kind;
}

and kind = Eager | Rts of int | Cts of int | Rendez_data of int

val envelope_bytes : int
(** 32: charged on every transport message. *)

type transport = {
  t_xmit : dst:int -> envelope -> unit;
      (** Move one envelope plus its payload to [dst]; blocking is allowed
          (called from rank processes).  Reliable and ordered per pair. *)
  t_start : deliver:(envelope -> unit) -> unit;
      (** Start the receive progress machinery; [deliver] runs in a
          task-context process on the receiving rank. *)
}

type t
(** One rank's MPI context. *)

val create : Proto.Hostenv.t -> rank:int -> transport -> t

val send : t -> dst:int -> tag:int -> int -> unit
(** Standard-mode blocking send of [n] bytes. *)

val recv : t -> ?src:int -> ?tag:int -> unit -> envelope
(** Blocking receive; omitted [src]/[tag] act as wildcards.  Matching is
    FIFO among queued candidates, as MPI requires. *)

(** {1 Non-blocking receive} *)

type request

val irecv : t -> ?src:int -> ?tag:int -> unit -> request
(** Starts a {!recv} in its own process, so the caller can send before
    it waits. *)

val wait : request -> envelope
(** Blocks until the request's message has been received. *)

val unexpected_queued : t -> int
val sends : t -> int
val receives : t -> int
