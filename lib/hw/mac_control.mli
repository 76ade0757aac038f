(** IEEE 802.3x MAC control — PAUSE flow-control frames.

    A PAUSE frame is sent to the reserved {!Mac.flow_control} group
    address with ethertype {!Eth_frame.ethertype_mac_control}; its payload
    is the 16-bit opcode 0x0001 followed by a 16-bit pause time measured
    in quanta of 512 bit times (512 ns at 1 Gb/s).  Quanta 0 is XON: it
    cancels a pending pause immediately.  MAC control frames are
    link-constrained — consumed by the receiving station, never forwarded
    by switches. *)

open Engine

type Eth_frame.payload += Pause of { quanta : int }

val max_quanta : int
(** 0xffff (≈ 33.55 ms at 1 Gb/s). *)

val encode : quanta:int -> bytes
(** Big-endian opcode ‖ quanta.
    @raise Invalid_argument if [quanta] is outside [0, 0xffff]. *)

val decode : bytes -> (int, string) result
(** Parse a MAC-control payload back to its quanta. *)

val pause : src:Mac.t -> quanta:int -> Eth_frame.t
(** Build a PAUSE frame; the typed payload carries the quanta as decoded
    from the wire encoding.
    @raise Invalid_argument if [quanta] is outside [0, 0xffff]. *)

val xon : src:Mac.t -> Eth_frame.t
(** [pause ~quanta:0] — resume transmission immediately. *)

val is_mac_control : Eth_frame.t -> bool

val quanta_of : Eth_frame.t -> int option
(** [Some q] for a PAUSE frame, [None] for anything else. *)

val span_of_quanta : bits_per_s:float -> int -> Time.span
(** Wall-clock duration of [quanta] pause quanta at the given link rate. *)
