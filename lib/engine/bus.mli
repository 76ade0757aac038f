(** A shared bandwidth-limited bus.

    Thin layer over {!Resource}: a transfer of [n] bytes occupies the bus for
    [setup + n / effective_bandwidth].  [efficiency] derates the peak
    bandwidth for protocol/arbitration overhead (e.g. PCI burst efficiency),
    and [setup] models the per-transaction cost (arbitration, address
    phase).  Concurrent transfers serialize, so contention between, say, DMA
    traffic and CPU copies on a memory bus emerges naturally. *)

type t

val create :
  Sim.t ->
  name:string ->
  bytes_per_s:float ->
  ?efficiency:float ->
  ?setup:Time.span ->
  unit ->
  t
(** @raise Invalid_argument if [bytes_per_s <= 0] or [efficiency] outside
    (0, 1]. *)

val name : t -> string
val sim : t -> Sim.t

val transfer_time : t -> int -> Time.span
(** Uncontended duration of an [n]-byte transfer. *)

val transfer : ?priority:Resource.priority -> t -> int -> unit
(** Blocks the calling process for queueing plus {!transfer_time}. *)

val bytes_moved : t -> int
