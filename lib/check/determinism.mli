(** The determinism / race detector's logical trace hash.

    Feed every probe event of a run into [on_event]; [result] digests the
    protocol-visible outcome (per-stream delivery chains, application
    message streams, channel deaths) while staying invariant under
    everything a same-instant tie-break permutation may legitimately
    change (process-global uids, wall-clock timing, cross-stream
    interleaving).  An application delivery is hashed as its ordinal in
    its (src, dst, port, epoch) flow and its size, both read from the
    matching [Msg_send], so how a sender's flows interleaved is not part
    of the hash; a delivery with no recorded send (a broadcast) is hashed
    by its raw message id.  The stream tables are internal: callers only
    compare results. *)

type t

val create : unit -> t
val on_event : t -> Engine.Probe.event -> unit

val result : t -> string
(** Hex digest over every stream's chain head, in canonical key order. *)
