(** Unit helpers shared by hardware models and reports. *)

val kib : int -> int

val mbit_per_s : float -> float
(** Megabits per second → bytes per second (decimal mega, as in networking:
    1 Mbit/s = 10^6 bit/s). *)

val gbit_per_s : float -> float

val to_mbit_per_s : bytes_per_s:float -> float
(** Bytes/s → Mbit/s, the unit of every bandwidth figure in the paper. *)

val bandwidth_mbps : bytes:int -> span:Time.span -> float
(** Achieved bandwidth in Mbit/s for [bytes] moved in [span]; 0 if the span
    is empty. *)
