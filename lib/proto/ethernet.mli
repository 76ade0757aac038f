(** The host's L2 attachment point: ethertype demultiplexing on receive and
    a bounded device queue (Linux's qdisc / txqueuelen) on transmit.

    Protocol stacks register per-ethertype receive handlers (which run in
    the driver's upcall context, i.e. interrupt level) and transmit through
    {!send}, which blocks the caller only when the device queue is full.
    A pump process feeds the queue to the driver, waiting for transmit-ring
    space when the NIC is backed up. *)

open Os_model
open Hw

type t

val create : Hostenv.t -> t
(** Installs itself as the driver's receive upcall.  The device queue
    holds 100 packets. *)

val register : t -> ethertype:int -> (Nic.rx_desc -> unit) -> unit
(** @raise Invalid_argument on a duplicate ethertype. *)

val send :
  t ->
  dst:Mac.t ->
  ethertype:int ->
  skb:Skbuff.t ->
  payload:Eth_frame.payload ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** Enqueues one frame; blocks while the device queue is full.
    [on_complete] fires when the frame has left the NIC. *)

val env : t -> Hostenv.t
val unhandled : t -> int
(** Frames received with no handler for their ethertype. *)
