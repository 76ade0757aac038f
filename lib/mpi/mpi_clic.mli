(** The MPI-on-CLIC transport (the paper's "MPI-CLIC").

    Envelopes and payload ride a reserved CLIC port; a progress process on
    each rank receives CLIC messages and feeds the matching engine.  MPI
    point-to-point maps directly onto CLIC's reliable ordered messages, so
    the transport adds only the 32-byte envelope to each message — which is
    why Figure 6 shows MPI-CLIC hugging the raw CLIC curve. *)

type registry
(** Shared envelope registry for one MPI world (one per cluster). *)

val registry : unit -> registry

val transport : registry -> Clic.Api.t -> rank:int -> Mpi.transport
(** Build rank [rank]'s transport over its node's CLIC endpoint.  Ranks
    are node ids. *)
