(** System-call entry/exit costs.

    CLIC keeps the OS in the communication path: every send/receive is a
    system call (INT 80h on the paper's Pentiums).  The paper measures the
    combined enter+leave overhead at about 0.65 us on a 1.5 GHz PC and
    argues it is an acceptable price (< 2% of a message time) for retaining
    OS services.  *)

open Engine

type t

val create : Cpu.t -> t
(** Entry costs 0.35 us and exit 0.30 us (0.65 us round trip). *)

val wrap : t -> (unit -> 'a) -> 'a
(** [wrap t f] charges the user→kernel entry on the CPU (blocking), runs
    [f], then charges the exit; the exit cost is paid even if [f] raises. *)

val round_trip : Time.span
val calls : t -> int
