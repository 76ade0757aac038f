(** The chaos-soak harness: randomized fault schedules against the full
    node stack with every sanitizer pass watching.

    For each seed, a rotation of trial templates builds a fresh cluster
    and stresses one axis — composed link weather (loss, duplication,
    jitter, frame corruption), kernel-pool pressure against the
    watermarks, an interrupt storm that must flip the driver into NAPI
    polling, or a node crash with reboot and channel re-establishment.
    Each trial runs under the lifecycle sanitizer and the full invariant
    monitor set; on top of violations, the harness also fails when the
    *evidence counters* show a stress axis never actually fired (a soak
    that never dropped a frame at the hard watermark was not soaking). *)

type trial_result = {
  tr_template : string;
  tr_seed : int;
  tr_violations : Violation.t list;
  tr_crashed : bool;
}

type report = {
  s_trials : trial_result list;
  s_tally : Cluster.Tally.t;
      (** the stack's counters over every trial, banked per boot (a
          crashed kernel's just before its reboot) *)
  s_switch_failures : int;  (** switches failed mid-trial *)
  s_open_loop : int;
      (** open-loop requests answered across a gray (fail-slow) window *)
  s_brownout_slowed : int;  (** frames delayed by link brownouts *)
  s_notes : string list;
  s_full_set : bool;
      (** every registered template was in the rotation; when [false]
          (an [only] run, or fewer [trials] than templates) the evidence
          demands are waived *)
}

val template_names : string list
(** ["crash-reboot"; "pool-crunch"; "irq-storm"; "faults-mesh";
    "incast-storm"; "fabric-cut"; "ecn-collapse"; "gray-soak"]. *)

val default_seeds : int list
(** [[101; 202; 303]] — the seeds CI pins. *)

val run :
  ?seeds:int list ->
  ?trials:int ->
  ?quick:bool ->
  ?only:string list ->
  unit ->
  report
(** [run ()] executes [trials] (default: one per template) trials per
    seed, rotating through the template set ([only] narrows it, and so
    does a [trials] count below the number of templates — evidence
    demands are then waived).  [quick] divides traffic volumes by four.
    Trials always run their simulations to completion, so the lifecycle
    leak check stays on.
    @raise Invalid_argument on [trials <= 0] or an unknown [only] name. *)

val violations : report -> Violation.t list

val missing_evidence : report -> string list
(** Human-readable complaints for stress axes that never fired; empty
    when the soak exercised everything it promises, and always empty when
    the template set was narrowed. *)

val ok : report -> bool
(** No violations, no harness crashes and no missing evidence. *)

val pp_summary : Format.formatter -> report -> unit
(** The summary table: one line per trial, then one line per evidence
    counter (the same table {!missing_evidence} checks). *)
