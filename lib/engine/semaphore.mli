(** Counting semaphores for simulation processes.

    Used to model bounded capacities: NIC descriptor rings, socket buffers,
    in-flight message windows.  FIFO wakeup order. *)

type t

val create : int -> t
(** [create n] has [n] initial permits.  [n] must be non-negative. *)

val acquire : ?n:int -> t -> unit
(** Blocks the calling process until [n] (default 1) permits are available,
    then takes them.  Waiters are served strictly in FIFO order: a large
    request at the head blocks later small ones (no starvation). *)

val try_acquire : ?n:int -> t -> bool
val release : ?n:int -> t -> unit
val available : t -> int
val waiters : t -> int
