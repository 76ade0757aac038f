(** The checker orchestrator: run a scenario under the three analysis
    passes (lifecycle sanitizer, invariant monitors, determinism hash)
    and report what they found.

    A scenario runs once as the FIFO baseline and then [seeds] more
    times under seeded permutations of same-instant event ordering; a
    seeded run whose logical trace hash differs from the baseline is a
    determinism violation, while measurement-only drift with an
    identical logical trace is reported as a note.

    This module shares the library's name, so it is the library's
    public face: the passes are re-exported for callers. *)

module Violation = Violation
module Lifecycle = Lifecycle
module Invariants = Invariants
module Sink = Sink
module Determinism = Determinism
module Scenario = Scenario
module Soak = Soak
module Slo = Slo

type report = {
  scenario : string;
  violations : Violation.t list;
  notes : string list;
  baseline_hash : string;
  output : string;  (** rendered figure/stat text of the baseline run *)
  runs : int;  (** baseline + seeded re-runs completed *)
}

val ok : report -> bool

val run_scenario : ?seeds:int -> Scenario.t -> report
(** Runs the scenario under every pass; [seeds] defaults to 3. *)

val run_all : ?seeds:int -> ?names:string list -> unit -> report list
(** All scenarios, or the named subset.
    @raise Invalid_argument on an unknown name. *)

val pp_report : Format.formatter -> report -> unit
