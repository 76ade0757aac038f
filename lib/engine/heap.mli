(** A polymorphic, {e stable} binary min-heap.

    Used as the event queue of the simulator, but generic: ordering is given
    by a comparison function at creation time.  Every entry carries an
    explicit monotone insertion stamp and the internal comparator falls back
    to it, so elements that compare equal under [cmp] pop in insertion
    (FIFO) order by construction.  Amortised O(log n) insert and pop, O(1)
    peek.  Not thread-safe — the simulator is single-domain. *)

type 'a t

val create : dummy:'a -> cmp:('a -> 'a -> int) -> 'a t
(** [create ~dummy ~cmp] is an empty heap ordered by [cmp] (smallest
    first).  [dummy] is a throwaway element used to fill unoccupied
    slots of the backing array; it is never compared with [cmp] and
    never returned, but it may be retained by the heap indefinitely, so
    prefer a small constant value. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : 'a t -> 'a list
(** Drains a copy of the heap; the heap itself is left untouched. *)
