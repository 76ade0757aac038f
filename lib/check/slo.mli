(** SLO degradation contracts: judge an open-loop latency record
    ({!Cluster.Workload.slo}) against what production promises under
    gray failure.

    Samples are classified by arrival instant into healthy (before the
    fault window), degraded (inside it), a recovery grace window (not
    judged), and recovered (after the deadline).  Three promises are
    checked: the healthy p999 stays under an absolute bound, the
    degraded p999 bleeds no further than a bounded multiple of that
    bound, and the recovered tail is back under the healthy bound. *)

open Engine
open Cluster

type contract = {
  healthy_p999_us : float;  (** absolute healthy-phase p999 bound *)
  bleed_ratio : float;
      (** degraded p999 may reach at most this multiple of the healthy
          bound — bounded degradation, not unbounded *)
  recovery_deadline : Time.span;
      (** grace window after the fault clears; requests arriving later
          must meet the healthy bound again *)
}

val validate : contract -> unit
(** @raise Invalid_argument for a non-positive p999 bound, a bleed ratio
    below 1, or a non-positive recovery deadline. *)

val default : contract
(** The contract `clic-sim run slo` enforces in CI. *)

type verdict = {
  v_contract : contract;
  v_healthy : int;
  v_degraded : int;
  v_recovered : int;  (** sample counts per judged phase *)
  v_healthy_p999_us : float;
  v_degraded_p999_us : float;
  v_recovered_p999_us : float;
  v_violations : Violation.t list;
      (** rules: [healthy-p999], [bounded-bleed], [recovery-deadline],
          [phase-empty], [mechanism-idle] *)
}

val ok : verdict -> bool

val evaluate :
  contract -> slo:Workload.slo -> fault_from:Time.t -> fault_until:Time.t ->
  verdict
(** Pure classification and judgement of one latency record.
    @raise Invalid_argument on a bad contract or an empty fault window. *)

val run_contract : ?quick:bool -> unit -> verdict * Workload.slo
(** Builds the canonical 4-node cluster, runs the Poisson open-loop
    workload across a mid-run gray-failure window (link brownout to an
    eighth of the rate, 6x-slow NICs on two nodes, periodic egress stalls
    on a third), and judges the record against {!default}.  Also fails
    (rule [mechanism-idle]) if any injected fail-slow mechanism never
    actually engaged. *)

val pp_verdict : Format.formatter -> verdict -> unit
