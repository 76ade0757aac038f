(** Per-message latency attribution: the Figure 7 stage breakdown for
    every CLIC message in a recorded run ({!Report.Stages}). *)

val messages : Recorder.t -> Report.Stages.message list
(** [Report.Stages.messages] over the recording. *)

type percentiles = { p50_us : float; p90_us : float; p99_us : float }

val latency_percentiles : Report.Stages.message list -> percentiles
(** Nearest-rank percentiles of total latency
    ({!Cluster.Workload.quantile}). *)

val pp_table : Format.formatter -> Report.Stages.message list -> unit
(** Per-message stage table plus mean row and latency percentiles. *)
