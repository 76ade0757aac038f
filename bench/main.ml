(* The events/sec harness: the engine's raw dispatch throughput plus the
   wall clock and events/sec of every registered experiment's checker
   run.

   Usage:
     dune exec bench/main.exe -- --bench [--quick] [--out FILE]
         # --quick shrinks the engine microbenchmarks; --out writes the
         # results as JSON (the committed BENCH_*.json files — see README
         # "Benchmarks")

   Experiments are regenerated with `clic-sim run`; end-to-end timings
   per workload come from benchsuite/. *)

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* Every experiment as an events/sec benchmark at the checker's size: the
   engine keeps a process-wide fired-event counter precisely so a
   scenario that builds its simulators internally can still report
   throughput. *)
let scenario_results ~runs =
  List.map
    (fun (sc : Check.Scenario.t) ->
      let f () =
        let e0 = Engine.Sim.global_events_executed () in
        sc.run null_fmt;
        Engine.Sim.global_events_executed () - e0
      in
      let events, wall_s = Bench_engine.time_min ~runs f in
      let bench_id = "scenario/" ^ sc.name in
      { Bench_engine.bench_id; events; wall_s; nodes = 0 })
    Check.Scenario.all

let json_of_results results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"bench_id\": %S, \"events_per_sec\": %.1f, \"wall_s\": \
            %.6f, \"nodes\": %d}"
           r.Bench_engine.bench_id
           (Bench_engine.events_per_sec r)
           r.Bench_engine.wall_s r.Bench_engine.nodes))
    results;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let print_result r =
  Printf.printf "%-24s %12.0f ev/s  %8.4f s  (%d events)\n"
    r.Bench_engine.bench_id
    (Bench_engine.events_per_sec r)
    r.Bench_engine.wall_s r.Bench_engine.events

let rec flag_value name = function
  | f :: v :: _ when f = name -> Some v
  | _ :: rest -> flag_value name rest
  | [] -> None

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if not (List.mem "--bench" args) then begin
    prerr_endline "usage: main.exe --bench [--quick] [--out FILE]";
    exit 2
  end;
  (* min-of-3 even in quick mode: CI compares these numbers against the
     committed baseline, so damping scheduler noise matters more than the
     two extra sub-second runs. *)
  let runs = 3 in
  let results =
    Bench_engine.run ~runs ~quick:(List.mem "--quick" args) ()
    @ scenario_results ~runs
  in
  List.iter print_result results;
  match flag_value "--out" args with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of_results results);
      close_out oc;
      Printf.printf "wrote %s\n" path
