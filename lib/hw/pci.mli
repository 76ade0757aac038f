(** The host I/O bus.

    The paper's testbed uses 33 MHz / 32-bit PCI (132 MB/s peak) and calls
    it out as the emerging bottleneck of the communication path.  A PCI bus
    is just a {!Engine.Bus} with a derated efficiency (burst setup, target
    wait states, arbitration) and a per-transaction setup cost — the PCI 2.1
    delays "of microseconds" the paper cites. *)

val create :
  Engine.Sim.t ->
  ?name:string ->
  ?clock_mhz:float ->
  ?width_bytes:int ->
  ?efficiency:float ->
  ?setup:Engine.Time.span ->
  unit ->
  Engine.Bus.t
(** Defaults: 33 MHz, 4 bytes wide, {!default_efficiency},
    {!default_setup}. *)

val peak_bytes_per_s : clock_mhz:float -> width_bytes:int -> float
