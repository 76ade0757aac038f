(** A growable circular FIFO.

    The fabric's per-frame queues (a link's transmit queue and its frames
    in flight, a switch port's egress FIFO and its forwarding queue) and
    the processes waiting on a {!Resource} or a {!Mailbox}.  A steady
    stream of {!push} and {!pop} allocates nothing; the backing array
    doubles when full and never shrinks.

    Every vacated cell is overwritten with the ring's fill value, so a
    popped element (a frame and its payload) is not kept reachable by
    the ring. *)

type 'a t

val create : 'a -> 'a t
(** An empty ring whose free cells hold the given fill value.  It
    allocates its array on the first {!push}. *)

val empty : unit -> 'a t
(** An empty ring whose fill value is the first element pushed, for
    elements that keep nothing alive once popped and used: a
    continuation, once resumed, holds no stack. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Adds an element at the back. *)

val pop : 'a t -> 'a
(** Removes and returns the front element.
    @raise Invalid_argument when the ring is empty. *)
