(** The kernel socket-buffer structure ([SK_BUFF]).

    CLIC's 0-copy send hinges on the sk_buff fragment list: the driver can
    hand the NIC a scatter-gather descriptor whose fragments point straight
    into user memory, so the NIC bus-masters the data out without the CPU
    ever copying it.  We model the structure's shape (header area plus a
    fragment list tagged with the memory region each piece lives in) and
    its accounting; the actual data movement costs live in the CPU, bus and
    NIC models. *)

type region = User_memory | Kernel_memory

type fragment = { region : region; bytes : int }

type t = {
  sk_id : int;  (** process-unique identity, for the lifecycle sanitizer *)
  header_bytes : int;  (** protocol headers prepended by the stack *)
  fragments : fragment list;  (** data fragments, in order *)
}

val create : header_bytes:int -> fragment list -> t
(** Allocates a fresh identity and reports it to {!Engine.Probe} (owner
    [App] when any fragment lives in user memory, [Channel] otherwise).
    @raise Invalid_argument on negative sizes. *)

val transfer : t -> Engine.Probe.owner -> where:string -> unit
(** Reports an ownership handoff to the lifecycle sanitizer.  [where] names
    the code point (e.g. ["driver:tx-routine"]).  A no-op without an
    installed probe sink. *)

val release : t -> where:string -> unit
(** Reports the end of the buffer's life (transmit completion, or an
    abandoned post).  Releasing twice is exactly the double-free the
    sanitizer exists to catch. *)

val of_user : header_bytes:int -> int -> t
(** One fragment living in user memory (the 0-copy send shape). *)

val of_kernel : header_bytes:int -> int -> t
(** One fragment staged in kernel memory (the 1-copy send shape). *)

val data_bytes : t -> int
val total_bytes : t -> int
(** Headers plus data: what the NIC must fetch. *)

val user_bytes : t -> int
(** Bytes that still live in user memory (pinned during DMA). *)

val is_zero_copy : t -> bool
(** True when no fragment was staged into kernel memory. *)
