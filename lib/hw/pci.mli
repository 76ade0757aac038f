(** The host I/O bus.

    The paper's testbed uses 33 MHz / 32-bit PCI (132 MB/s peak) and calls
    it out as the emerging bottleneck of the communication path.  A PCI bus
    is just a {!Engine.Bus} with a derated efficiency (burst setup, target
    wait states, arbitration) and a per-transaction setup cost — the PCI 2.1
    delays "of microseconds" the paper cites. *)

val create :
  Engine.Sim.t ->
  ?name:string ->
  ?width_bytes:int ->
  ?efficiency:float ->
  unit ->
  Engine.Bus.t
(** A 33 MHz bus with 0.9 us of setup per transaction.  Defaults: 4 bytes
    wide, 0.78 efficiency. *)

val peak_bytes_per_s : width_bytes:int -> float
(** The bus's raw rate at 33 MHz, before {!create}'s efficiency. *)
