(** A mechanistic TCP over {!Ip}: the baseline CLIC is measured against.

    Implements the mechanisms whose costs the paper attributes the TCP/IP
    overhead to: per-segment protocol processing through the stack's
    layers, per-byte checksumming and copying on both sides, segmentation
    to the MSS, cumulative and delayed ACKs (piggybacked on reverse data),
    sliding-window flow control, slow start / congestion avoidance, and
    timeout plus fast retransmission.  Data is byte counts; sequence
    numbers are real and start at zero per direction.

    Contexts: {!send}/{!recv} block and must run in task-context processes;
    segment reception runs at interrupt priority in the driver upcall.

    Cost parameters are {e effective} values fitted to the paper's
    measured TCP/IP curves (Figures 5 and 6) — see EXPERIMENTS.md — while
    every comparative behaviour (copies, interrupts, windowing) is
    simulated mechanically. *)

open Engine

type params = {
  tx_per_segment : Time.span;  (** TCP+socket work per data segment sent *)
  rx_per_segment : Time.span;  (** per data segment received *)
  ack_tx_cost : Time.span;  (** building/sending a pure ACK *)
  ack_rx_cost : Time.span;  (** processing a received pure ACK *)
  per_send_call : Time.span;  (** socket-layer cost per send() call *)
  per_recv_call : Time.span;  (** socket-layer cost per recv() call *)
  tx_bytes_per_s : float;  (** copy-from-user + checksum rate, sender *)
  rx_bytes_per_s : float;  (** checksum / byte-touch rate, receiver *)
  socket_buffer : int;  (** send and receive buffer size, bytes *)
  initial_cwnd_segments : int;
  initial_ssthresh : int;
  delack_segments : int;  (** ACK every n-th data segment *)
  delack_timeout : Time.span;
  rto : Time.span;  (** fixed retransmission timeout *)
  dupack_threshold : int;
}

val default_params : params

type t
(** Per-host TCP instance. *)

type conn

val create : Ip.t -> ?params:params -> unit -> t

val listen : t -> port:int -> unit
(** @raise Invalid_argument if the port is already listening. *)

val connect : t -> dst:int -> port:int -> conn
(** Blocking three-way handshake; must run in a process.  A SYN not
    answered within [rto] is sent again, up to 8 SYNs in all.
    @raise Failure ["Tcp.connect: handshake timed out"] when the eighth
    goes unanswered too. *)

val accept : t -> port:int -> conn
(** Blocks until a connection on the listening port completes. *)

val send : conn -> int -> unit
(** Writes [n] bytes to the stream; blocks while the send buffer is full. *)

val recv : conn -> int -> unit
(** Consumes exactly [n] bytes from the stream, blocking as needed. *)

val available : conn -> int
(** Bytes received, in order, and not yet consumed. *)

val close : conn -> unit
(** Orderly shutdown of our sending direction: drains buffered data, sends
    FIN and waits a round trip.  Idempotent; must run in a process. *)

val at_eof : conn -> bool
(** The peer closed and every delivered byte has been consumed. *)

(** A {!recv} that would block after the peer closed raises
    [End_of_file]. *)

val ip_of : t -> Ip.t
val peer_of : conn -> int
(** The remote node id. *)

val mss : conn -> int
(** MTU minus the 40 header bytes. *)

(** {1 Statistics} *)

val segments_sent : t -> int
val retransmits : t -> int
val acks_sent : t -> int
val bytes_delivered : conn -> int
(** In-order bytes handed to the application side (consumed or waiting). *)
