(** The host memory bus.

    Shared by CPU copies and DMA traffic; a memory-to-memory copy crosses it
    twice (read + write), which {!copy_bytes} accounts for.  Default
    bandwidth matches the SDRAM systems of the paper's era (~800 MB/s
    effective); each transfer pays 60 ns of setup. *)

val create :
  Engine.Sim.t -> ?name:string -> ?bytes_per_s:float -> unit -> Engine.Bus.t

val copy_bytes : int -> int
(** Bus bytes consumed by a CPU memory-to-memory copy of [n] bytes (2n). *)
