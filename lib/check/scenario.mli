(** The experiment registry: every experiment the repository renders,
    declared once, with the exit-status contract it must meet.  The CLI
    ([clic-sim run], [list], [timeline], [metrics]), the checker and the
    bench harness all iterate {!all}.

    The record is concrete so tests can build synthetic scenarios. *)

type t = {
  name : string;
  descr : string;
  report : quick:bool -> Format.formatter -> Violation.t list;
      (** Renders the experiment at full or quick size and returns its
          contract violations; [[]] for experiments without a contract. *)
  run : Format.formatter -> unit;
      (** The checker's trace-pinned run: the quick-size [report] with its
          verdict discarded, except for [slo], which runs only the
          quick-size {!Slo.run_contract} and prints its verdict (the whole
          panel would cost the checker about five times the allocation). *)
}

val all : t list
val names : string list
val find : string -> t option

(** {1 Contracts}

    Pure functions over the rows an experiment returns: one violation per
    broken promise, each tagged with the experiment id as its pass. *)

val incast_contract :
  Report.Figures.incast_row list ->
  Report.Figures.gather_row list ->
  Violation.t list
(** Both fabrics deliver everything; tail-drop collapses (ingress and
    egress drops, retransmissions) on a non-trivial workload; 802.3x PAUSE
    loses nothing, sends PAUSE frames, holds senders off and uses the
    shared buffer; the gather loses frames only under tail-drop. *)

val fabric_contract :
  Report.Figures.fabric_row list ->
  Report.Figures.reroute_row ->
  Violation.t list
(** Both fabrics deliver everything; tail-drop collapses at the
    oversubscribed uplink; 802.3x loses nothing and forms a congestion
    tree (spine and ToR PAUSE, paused senders); after the spine failure
    everything arrives and the survivor out-carries the dead spine. *)

val congestion_contract :
  Report.Figures.congestion_cell list ->
  Report.Figures.bursty_row list ->
  Violation.t list
(** All 12 cells deliver everything; ECN cells are switch-lossless and
    PAUSE-free while marking and echoing CE; PAUSE cells are lossless;
    only ECN cells mark; tail-drop loses frames somewhere; under bursty
    loss go-back-N times out and never SACKs, while SACK sacks, saves
    bytes and retransmits strictly fewer of them. *)

val slo_contract :
  Report.Figures.slo_row list -> Slo.verdict -> Violation.t list
(** Every CLIC request is answered and none is stranded, CLIC's
    fail-slow p999 exceeds its healthy p999, and the verdict's own
    violations. *)
