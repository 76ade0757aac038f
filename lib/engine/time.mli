(** Simulated time in integer nanoseconds.

    All simulation clocks and durations are integer nanoseconds carried in a
    native [int] (63 bits on 64-bit platforms, i.e. about 292 simulated
    years), which keeps event ordering exact and runs reproducible.  A
    separate [span] alias documents intent: [t] is a point on the simulation
    clock, [span] a duration. *)

type t = int
(** An absolute instant, in nanoseconds since the start of the simulation. *)

type span = int
(** A duration in nanoseconds.  Spans may be added to instants. *)

val zero : t

(** {1 Constructors} *)

val ns : int -> span
val us : float -> span
val ms : float -> span
val s : float -> span

(** {1 Conversions} *)

val to_us : span -> float
val to_ms : span -> float
val to_s : span -> float

(** {1 Arithmetic} *)

val add : t -> span -> t
val diff : t -> t -> span
val mul : span -> int -> span

val of_bytes_at_rate : bytes_per_s:float -> int -> span
(** [of_bytes_at_rate ~bytes_per_s n] is the time needed to move [n] bytes at
    the given rate, rounded up to a whole nanosecond. *)

val of_bits_at_rate : bits_per_s:float -> int -> span
(** Same as {!of_bytes_at_rate} but counting bits, for wire serialization. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit (ns, us, ms or s). *)

val pp_us : Format.formatter -> t -> unit
(** Prints as microseconds with two decimals, the paper's habitual unit. *)

val to_string : t -> string
