(** Figure 7's stage split, for one packet or for every message of a
    recorded run.

    {!messages} pairs each message's [Msg_send] / [Msg_deliver] /
    [Msg_recv] probe events and charges the driver's and CLIC_MODULE's
    CPU spans to it: sender-side work goes to the latest message the
    sender had entered at the span's start, receiver-side work to the
    oldest message still in flight to that node (fragments are delivered
    in order).  Each stage's duration merges its intervals disjointly
    ({!merged_length}), and the stages are split as Figure 7 is.

    With pipelined traffic, batch work shared between messages (one ISR
    draining several messages' fragments) is charged to the oldest; the
    per-message [total_us] is exact, the stage split is an attribution. *)

open Engine

type t = {
  module_tx_us : float;  (** CLIC_MODULE send-side work *)
  driver_tx_us : float;  (** driver transmit routine *)
  transit_us : float;  (** buses + wire + switch + interrupt dispatch *)
  isr_us : float;  (** interrupt service routine (driver part) *)
  bottom_half_us : float;  (** bottom half, driver part *)
  module_rx_us : float;  (** CLIC_MODULE receive work + copy to user *)
  total_us : float;  (** send syscall entry to copy-out complete *)
}
(** The module's receive work nests inside the driver stage that ran its
    upcall, so it comes out of the bottom half when the message has one
    and out of the ISR otherwise (direct-from-ISR mode), floored at 0.
    Transit is what the five host stages leave of the total, floored at
    0. *)

type span = { stage : Probe.Stage.t; start : Time.t; finish : Time.t }
(** One [Probe.Span] charged to a message: its stage and interval. *)

type side = Sender | Receiver

val side : Probe.Stage.t -> side option
(** The end of a message whose work a stage is: [Sender] for
    CLIC_MODULE's and the driver's send stages, [Receiver] for the ISR,
    the bottom half, CLIC_MODULE's receive work and its copy to user.
    [None] for the stages no message is charged with: the driver's
    polling passes and the hardware and resource activities. *)

type message = {
  src : int;
  dst : int;
  port : int;
  msg_id : int;
  bytes : int;
  t_send : int;  (** ns *)
  t_deliver : int option;  (** last fragment reassembled *)
  t_recv : int option;  (** copy to receiver's user memory complete *)
  stages : t;
  spans : span list;
      (** the spans charged to this message, by stage in declaration
          order, then by start *)
}

val messages : ((Time.t -> Probe.event -> unit) -> unit) -> message list
(** [messages iter] reads the events [iter] hands its argument, each with
    the instant it happened, in one pass: all messages that entered a
    send syscall, in send order.  A message's total runs from its
    [Msg_send] to its [Msg_recv] (its [Msg_deliver] if never received; 0
    if neither).  Local (same-node) messages never emit [Msg_send] and
    are not included. *)

val merged_length : span list -> Time.span
(** The length of the union of each stage's intervals, summed over the
    stages: within a stage, overlaps and abutments count once, so a stage
    never covers more than wall-clock time.  The order of the list does
    not matter. *)

val node_of : string -> int option
(** The node a resource belongs to, by the names [Node.create], [Net] and
    [Switch] give: "cpu3", "mem3", "pci3" (or "pci3.1"), "kmem3",
    "nic3.0"; switch-port links "switch0<-n3" / "switch0->n3" belong to
    the node on their far end.  [None] for switch-internal resources and
    unrecognized names. *)
