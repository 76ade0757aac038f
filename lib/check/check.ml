(* The checker orchestrator: run a scenario under the three analysis
   passes and report what they found.

   A scenario is run once as the *baseline* — FIFO same-instant ordering —
   and then [seeds] more times, each under a different seeded permutation
   of same-instant event ordering.  Every run carries the full pass set:
   the lifecycle sanitizer, every invariant monitor, and the logical trace
   hash, so protocol correctness is checked under each permutation, not
   just the FIFO schedule.  A seeded run whose logical trace hash differs
   from the baseline is a determinism violation; a run whose rendered
   *measurements* differ while the logical trace is identical is reported
   as a note — the contention model legitimately resolves same-instant
   CPU/wire ties in permutation order, which moves timing-level numbers
   the way two runs on real hardware would.

   All probe state is process-global, so runs are strictly serialized and
   the sink / tie-break default are restored even when a scenario run
   raises. *)

open Engine

(* This module shares the library's name, so it is the library's public
   face: re-export the passes for callers (tests, the CLI). *)
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
  output : string;  (* rendered figure/stat text of the baseline run *)
  runs : int;  (* baseline + seeded re-runs completed *)
}

let ok r = r.violations = []

(* Renders the scenario into a buffer: the returned text doubles as the
   run's behavioural fingerprint for the determinism pass. *)
let render (sc : Scenario.t) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  sc.run fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* One probed run; installs [sink], restores probe/tie-break state after.
   Returns the rendered output, or the exception that ended the run with
   its backtrace. *)
let probed_run ?tie_break (sc : Scenario.t) sink =
  Probe.install sink;
  Sim.set_default_tie_break tie_break;
  Fun.protect
    ~finally:(fun () ->
      Probe.uninstall ();
      Sim.set_default_tie_break None)
    (fun () ->
      match render sc with
      | s -> Ok s
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))

type run_result = {
  r_violations : Violation.t list;  (* lifecycle + invariants + crash *)
  r_notes : string list;
  r_hash : string;
  r_output : string;
  r_crashed : bool;
}

(* Runs the scenario once with every pass attached. *)
let one_run ?tie_break (sc : Scenario.t) : run_result =
  let hash = Determinism.create () in
  let sink = Sink.create ~trace:hash () in
  let outcome = probed_run ?tie_break sc (Sink.on_event sink) in
  let output, crash =
    match outcome with
    | Ok out -> (out, [])
    | Error (e, bt) -> ("", [ Violation.crash ~time_ns:(Sink.now sink) e bt ])
  in
  {
    r_violations = Sink.finish sink @ crash;
    r_notes = Sink.notes sink;
    r_hash = Determinism.result hash;
    r_output = output;
    r_crashed = crash <> [];
  }

let seed_of_index i = 0x5EED0 + (i * 7919)

let retag_seed seed (v : Violation.t) =
  { v with Violation.detail = Printf.sprintf "under seed %d: %s" seed v.detail }

let run_scenario ?(seeds = 3) (sc : Scenario.t) : report =
  let baseline = one_run sc in
  (* Seeded re-runs only make sense against a baseline that finished. *)
  let violations, notes, runs =
    if baseline.r_crashed then (baseline.r_violations, baseline.r_notes, 1)
    else
      let rec go i vs ns runs =
        if i > seeds then (vs, ns, runs)
        else
          let seed = seed_of_index i in
          let r = one_run ~tie_break:seed sc in
          let vs = vs @ List.map (retag_seed seed) r.r_violations in
          let vs, ns =
            if r.r_crashed then (vs, ns)
            else if r.r_hash <> baseline.r_hash then
              ( vs
                @ [
                    Violation.make ~pass:"determinism" ~rule:"trace-divergence"
                      ~time_ns:0
                      (Printf.sprintf
                         "seed %d: trace hash %s differs from baseline %s \
                          (rendered results %s)"
                         seed r.r_hash baseline.r_hash
                         (if r.r_output = baseline.r_output then "identical"
                          else "also differ"));
                  ],
                ns )
            else if r.r_output <> baseline.r_output then
              ( vs,
                ns
                @ [
                    Printf.sprintf
                      "seed %d: identical logical trace, but measured \
                       numbers shift with same-instant contention ordering"
                      seed;
                  ] )
            else (vs, ns)
          in
          go (i + 1) vs ns (runs + 1)
      in
      go 1 baseline.r_violations baseline.r_notes 1
  in
  {
    scenario = sc.name;
    violations = List.sort Violation.by_time violations;
    notes;
    baseline_hash = baseline.r_hash;
    output = baseline.r_output;
    runs;
  }

let run_all ?(seeds = 3) ?names () =
  let scenarios =
    match names with
    | None -> Scenario.all
    | Some names ->
        List.map
          (fun n ->
            match Scenario.find n with
            | Some sc -> sc
            | None ->
                invalid_arg
                  (Printf.sprintf "Check.run_all: unknown scenario %S (know: %s)"
                     n
                     (String.concat ", " Scenario.names)))
          names
  in
  List.map (run_scenario ~seeds) scenarios

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%s: %s (%d runs, hash %s)@," r.scenario
    (if ok r then "clean" else Printf.sprintf "%d violation(s)"
                                 (List.length r.violations))
    r.runs
    (String.sub r.baseline_hash 0 (min 12 (String.length r.baseline_hash)));
  List.iter (fun v -> Format.fprintf fmt "  %a@," Violation.pp v) r.violations;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@," n) r.notes;
  Format.fprintf fmt "@]"
