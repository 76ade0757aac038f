(** Write-once synchronization variables ("incremental variables").

    An ivar starts empty; {!fill} sets its value exactly once and wakes every
    process blocked in {!read}.  Reads after the fill return immediately. *)

type 'a t

val create : unit -> 'a t

val is_filled : 'a t -> bool

val fill : 'a t -> 'a -> unit
(** @raise Invalid_argument if already filled. *)

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Blocks the calling process until the ivar is filled.  Must run inside a
    {!Process.spawn}ed process. *)

val on_fill : 'a t -> ('a -> unit) -> unit
(** Callback variant: runs [f] immediately if filled, else when filled. *)
