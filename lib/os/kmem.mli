(** A bounded kernel buffer pool.

    Models the system memory CLIC stages data in when the NIC cannot accept
    it immediately, and the kernel-side receive buffers packets wait in
    until a process asks for them.  Exhaustion makes callers fall back
    (blocking, or dropping for unreliable stacks) rather than allocating
    unboundedly.

    The pool carries two watermarks for overload signalling: above the
    {e soft} mark consumers should start shedding load (CLIC shrinks the
    windows it advertises and defers ack staging); at or above the {e hard}
    mark ingress paths stop admitting new buffers entirely (the NIC drops
    the frame with a counted reason instead of letting the allocation
    fail deeper in the stack).  Crossing a watermark in either direction
    emits a {!Probe.Pool_pressure} event. *)

type level = [ `Normal | `Soft | `Hard ]

type t

val create :
  ?name:string -> capacity:int -> ?soft_mark:int -> ?hard_mark:int -> unit -> t
(** [capacity] in bytes; must be positive.  [name] labels the pool in
    error messages and {!Probe} pool events.  Watermarks default to
    [capacity] (pressure only when completely full) and must satisfy
    [0 < soft_mark <= hard_mark <= capacity].
    @raise Invalid_argument otherwise. *)

val try_alloc : t -> int -> bool
(** Takes [n] bytes if available.  Watermarks do not gate the allocation
    itself — an alloc at or past the hard mark still succeeds while
    capacity remains; they only change {!level}.
    @raise Invalid_argument on a non-positive size. *)

val free : t -> int -> unit
(** @raise Invalid_argument on a non-positive size or when freeing more
    than is outstanding; the message names the pool and both byte
    counts. *)

val level : t -> level
(** [`Hard] when [in_use >= hard_mark], [`Soft] when
    [in_use >= soft_mark], [`Normal] otherwise. *)

val in_use : t -> int
val soft_mark : t -> int
val hard_mark : t -> int
val high_water : t -> int
val failed_allocs : t -> int
