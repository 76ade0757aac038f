(** Per-message latency attribution: the Figure 7 stage breakdown for
    every CLIC message in a recorded run.

    Pairs each message's [Msg_send] / [Msg_deliver] / [Msg_recv] probe
    events and attributes the labelled CPU spans of the sender and
    receiver to it: sender-side work goes to the latest message entered
    at the span's start, receiver-side work to the oldest message still
    in flight to that node (fragments are delivered in order).  Stage
    durations merge intervals disjointly ({!Engine.Trace.merged_length})
    and are split into stages by {!Report.Figures.fig7_stages}, as
    Figure 7 is.

    With pipelined traffic, batch work shared between messages (one ISR
    draining several messages' fragments) is charged to the oldest; the
    per-message [total_us] is exact, the stage split is an attribution. *)

type stages = Report.Figures.fig7_stages = {
  module_tx_us : float;  (** CLIC_MODULE send-side work *)
  driver_tx_us : float;  (** driver transmit routine *)
  transit_us : float;  (** buses + wire + switch + interrupt dispatch *)
  isr_us : float;  (** interrupt service routine (driver part) *)
  bottom_half_us : float;  (** bottom half, driver part *)
  module_rx_us : float;  (** CLIC_MODULE receive work + copy to user *)
  total_us : float;  (** send syscall entry to copy-out complete *)
}

type message = {
  src : int;
  dst : int;
  port : int;
  msg_id : int;
  bytes : int;
  t_send : int;  (** ns *)
  t_deliver : int option;  (** last fragment reassembled *)
  t_recv : int option;  (** copy to receiver's user memory complete *)
  stages : stages;
}

val messages : Recorder.t -> message list
(** All messages that entered a send syscall, in send order.  Local
    (same-node) messages never emit [Msg_send] and are not included. *)

type percentiles = { p50_us : float; p90_us : float; p99_us : float }

val latency_percentiles : message list -> percentiles
(** Bucketed (power-of-two) percentiles of total latency, via
    {!Engine.Stats.Histogram}. *)

val pp_table : Format.formatter -> message list -> unit
(** Per-message stage table plus mean row and latency percentiles. *)
