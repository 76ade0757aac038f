(** The determinism / race detector's logical trace hash.

    Feed every probe event of a run into [on_event]; [result] digests the
    protocol-visible outcome (per-stream delivery chains, application
    message streams, channel deaths) while staying invariant under
    everything a same-instant tie-break permutation may legitimately
    change (process-global uids, wall-clock timing, cross-stream
    interleaving).  The stream tables are internal: callers only compare
    results. *)

type t

val create : unit -> t
val on_event : t -> Engine.Probe.event -> unit

val result : t -> string
(** Hex digest over every stream's chain head, in canonical key order. *)
