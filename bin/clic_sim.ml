(* clic-sim: command-line driver for the CLIC reproduction.

   Subcommands:
     latency    ping-pong latency of any stack
     bandwidth  NetPIPE-style bandwidth of any stack at one message size
     stream     one-way saturation stream with CPU/interrupt statistics
     chaos      one custom fault profile under a saturation stream
     run        render experiments and enforce their exit-status contracts
     check      run the analysis passes over the experiments
     soak       randomized fault schedules under the analysis passes
     timeline   export an experiment's Perfetto/Chrome trace timeline
     metrics    export an experiment's time-series metrics (CSV/JSON)
     list       list experiment ids *)

open Cmdliner
open Cluster

let stacks = [ "clic"; "tcp"; "mpi-clic"; "mpi-tcp"; "pvm" ]

let stack_arg =
  let doc =
    Printf.sprintf "Communication stack: %s." (String.concat ", " stacks)
  in
  Arg.(value & opt (enum (List.map (fun s -> (s, s)) stacks)) "clic"
       & info [ "s"; "stack" ] ~docv:"STACK" ~doc)

(* A flag that [conv] parses, restricted to the values [ok] accepts: any
   other value (NaN included, for a float) is an argument error (exit
   124), like a value [conv] cannot parse at all. *)
let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when not (ok x) ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_from lo =
  checked Arg.int (fun n -> n >= lo) (Printf.sprintf "an integer >= %d" lo)

let probability =
  checked Arg.float (fun p -> p >= 0. && p <= 1.) "a number in [0, 1]"

(* A span in microseconds: 0, or at least 0.001 (one nanosecond, the
   clock's tick) with a nanosecond count that fits an int.  A finer value
   would round to 0 ns and a coarser one overflow [Time.us]. *)
let span_us =
  checked Arg.float
    (fun us ->
      us = 0.
      || (Float.is_finite us && us >= 0.001
         && us *. 1000. < Float.of_int max_int))
    "0 or a finite number >= 0.001"

(* 68 bytes is the smallest MTU IPv4 allows (RFC 791); every stack runs
   at it, while a few tens of bytes leave no room for headers. *)
let mtu_arg =
  Arg.(value & opt (int_from 68) 1500
       & info [ "m"; "mtu" ] ~docv:"BYTES"
           ~doc:"Link MTU, at least 68 (the paper uses 1500 and 9000).")

let size_arg =
  Arg.(value & opt (int_from 0) 1024
       & info [ "n"; "size" ] ~docv:"BYTES" ~doc:"Message size in bytes.")

let reps_arg =
  Arg.(value & opt (int_from 1) 10
       & info [ "r"; "reps" ] ~docv:"N" ~doc:"Timed repetitions.")

let zero_copy_arg =
  Arg.(value & opt bool true
       & info [ "zero-copy" ] ~docv:"BOOL"
           ~doc:"Use CLIC's 0-copy send path (path 2); false selects path 4.")

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose" ] ~doc:"Enable protocol debug logging.")

let config_of ~mtu ~zero_copy =
  let clic_params =
    if zero_copy then Clic.Params.default else Clic.Params.one_copy
  in
  { Node.default_config with mtu; clic_params }

let run_latency verbose stack mtu zero_copy reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let r = Measure.pingpong c pair ~size:0 ~reps () in
  Printf.printf "%s 0-byte one-way latency at MTU %d: %.2f us\n" stack mtu
    (Engine.Time.to_us r.Measure.one_way)

let run_bandwidth verbose stack mtu zero_copy size reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let r = Measure.pingpong c pair ~size ~reps ~warmup:1 () in
  Printf.printf "%s %dB at MTU %d: %.1f Mbit/s (one-way %.1f us)\n" stack size
    mtu r.Measure.pp_bandwidth_mbps
    (Engine.Time.to_us r.Measure.one_way)

let run_stream verbose stack mtu zero_copy size reps =
  ignore (verbose : bool);
  let c = Net.create ~config:(config_of ~mtu ~zero_copy) ~n:2 () in
  let pair = Report.Pairs.of_name stack c ~a:0 ~b:1 in
  let messages = max reps 100 in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
  Printf.printf
    "%s stream of %d x %dB at MTU %d: %.1f Mbit/s, sender CPU %.0f%%, \
     receiver CPU %.0f%%, %d interrupts\n"
    stack messages size mtu r.Measure.st_bandwidth_mbps
    (100. *. r.Measure.sender_cpu)
    (100. *. r.Measure.receiver_cpu)
    r.Measure.receiver_interrupts

(* One custom fault profile from the command line: uniform or bursty loss,
   duplication and delay jitter composed onto every link. *)
let run_chaos verbose loss burst dup jitter_us mtu size messages =
  ignore (verbose : bool);
  let open Engine in
  (* Gilbert–Elliott with mean burst length [burst] frames and average
     loss [loss]: the bad state drops half its frames, so it must hold
     for a share [loss /. loss_bad] of the time, which the good state's
     exit probability sets.  That is a probability only while [loss] is
     at most [burst / (2 (burst + 1))]; a higher average loss is an
     argument error, not a quietly milder channel. *)
  let loss_bad = 0.5 in
  let frac_bad = loss /. loss_bad in
  let p_bad_to_good = 1. /. float_of_int burst in
  let p_good_to_bad = frac_bad *. p_bad_to_good /. (1. -. frac_bad) in
  if
    loss > 0. && burst > 1
    && not (p_good_to_bad >= 0. && p_good_to_bad <= 1.)
  then begin
    Printf.eprintf
      "clic-sim: chaos: --loss %g is out of reach at --burst %d: a bursty \
       channel whose bad state drops half its frames averages at most %g \
       loss at that burst length\n"
      loss burst
      (float_of_int burst /. float_of_int (2 * (burst + 1)));
    exit Cmd.Exit.cli_error
  end;
  let root = Rng.create ~seed:20030422 in
  let mk_fault () =
    let rng = Rng.split root in
    let stages =
      List.concat
        [
          (if loss > 0. then
             if burst > 1 then
               [
                 Hw.Fault.gilbert_elliott ~rng:(Rng.split rng)
                   ~p_good_to_bad ~p_bad_to_good ~loss_bad;
               ]
             else [ Hw.Fault.drop ~rng:(Rng.split rng) ~prob:loss ]
           else []);
          (if dup > 0. then
             [ Hw.Fault.duplicate ~rng:(Rng.split rng) ~prob:dup ]
           else []);
          (if jitter_us > 0. then
             [
               Hw.Fault.jitter ~rng:(Rng.split rng)
                 ~max_delay:(Time.us jitter_us);
             ]
           else []);
        ]
    in
    match stages with [ f ] -> f | fs -> Hw.Fault.compose fs
  in
  let link_fault =
    if loss > 0. || dup > 0. || jitter_us > 0. then Some mk_fault else None
  in
  let config = { Node.default_config with mtu; link_fault } in
  let c = Net.create ~config ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
  let t = Tally.net c in
  let dups a b =
    match
      Clic.Clic_module.channel_to (Clic.Api.kernel (Net.node c a).Node.clic)
        ~peer:b
    with
    | Some ch -> Clic.Channel.duplicates_dropped ch
    | None -> 0
  in
  Printf.printf
    "chaos stream of %d x %dB at MTU %d (loss %.2f%%, burst %d, dup \
     %.2f%%, jitter %.0fus):\n\
    \  %.1f Mbit/s goodput in %.1f ms\n\
    \  %d retransmissions (%d timer, %d fast), %d duplicates dropped\n"
    messages size mtu (100. *. loss) burst (100. *. dup) jitter_us
    r.Measure.st_bandwidth_mbps
    (Time.to_us r.Measure.elapsed /. 1000.)
    t.Tally.retransmissions t.Tally.timeouts t.Tally.fast_retransmits
    (dups 0 1 + dups 1 0);
  (match
     Clic.Clic_module.channel_to (Clic.Api.kernel (Net.node c 0).Node.clic)
       ~peer:1
   with
  | Some ch ->
      let s = Clic.Channel.rto_stats ch in
      if Stats.Summary.count s > 0 then
        Printf.printf
          "  sender RTO: %.0f us mean, %.0f us max over %d armings%s\n"
          (Stats.Summary.mean s) (Stats.Summary.max s)
          (Stats.Summary.count s)
          (match Clic.Channel.srtt ch with
          | Some srtt ->
              Printf.sprintf " (srtt %.0f us)" (Time.to_us srtt)
          | None -> "")
  | None -> ())

let latency_cmd =
  Cmd.v (Cmd.info "latency" ~doc:"Ping-pong 0-byte latency")
    Term.(const run_latency $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg $ reps_arg)

let bandwidth_cmd =
  Cmd.v (Cmd.info "bandwidth" ~doc:"NetPIPE-style bandwidth at one size")
    Term.(
      const run_bandwidth $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg
      $ size_arg $ reps_arg)

let stream_cmd =
  Cmd.v (Cmd.info "stream" ~doc:"Saturation stream with CPU statistics")
    Term.(
      const run_stream $ verbose_arg $ stack_arg $ mtu_arg $ zero_copy_arg
      $ size_arg $ reps_arg)

let chaos_cmd =
  let loss =
    Arg.(value & opt probability 0.
         & info [ "loss" ] ~docv:"PROB"
             ~doc:"Frame loss probability in [0, 1] (e.g. 0.01 for 1%).")
  in
  let burst =
    Arg.(value & opt (int_from 1) 1
         & info [ "burst" ] ~docv:"FRAMES"
             ~doc:
               "Mean loss-burst length in frames, at least 1; > 1 selects a \
                Gilbert-Elliott bursty profile at the same average loss.")
  in
  let dup =
    Arg.(value & opt probability 0.
         & info [ "dup" ] ~docv:"PROB"
             ~doc:"Frame duplication probability in [0, 1].")
  in
  let jitter =
    Arg.(value & opt span_us 0.
         & info [ "jitter-us" ] ~docv:"US"
             ~doc:
               "Max extra per-frame delay: 0 (none) or at least 0.001 (1 \
                ns).  Jitter reorders frames.")
  in
  let messages =
    Arg.(value & opt (int_from 0) 400
         & info [ "messages" ] ~docv:"N" ~doc:"Stream length in messages.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "One custom fault profile (loss, bursts, duplication, jitter) \
          under a CLIC saturation stream.  The standing loss x burstiness \
          sweep is `clic-sim run chaos'.")
    Term.(
      const run_chaos $ verbose_arg $ loss $ burst $ dup $ jitter $ mtu_arg
      $ size_arg $ messages)

(* ------------------------------------------------------------------ *)
(* Experiments: every id is declared once, in Check.Scenario.all *)

let find_scenario name =
  match Check.Scenario.find name with
  | Some sc -> sc
  | None ->
      Printf.eprintf "clic-sim: unknown experiment %S (know: %s)\n" name
        (String.concat ", " Check.Scenario.names);
      exit 2

(* Render each experiment to stdout and its contract violations to
   stderr; exit 1 on any violation, so CI can gate on the contracts. *)
let run_experiments verbose id quick =
  ignore (verbose : bool);
  let experiments =
    match id with None -> Check.Scenario.all | Some id -> [ find_scenario id ]
  in
  let violations =
    List.concat_map
      (fun (sc : Check.Scenario.t) ->
        let vs = sc.report ~quick Format.std_formatter in
        Format.pp_print_flush Format.std_formatter ();
        List.iter
          (fun v ->
            Format.eprintf "clic-sim %s: %a@." sc.name Check.Violation.pp v)
          vs;
        vs)
      experiments
  in
  if violations <> [] then exit 1

let run_cmd =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
         ~doc:"Experiment id (see `clic-sim list'); default is every one.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Reduced sweep sizes and message counts.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Regenerate experiments (paper figures and tables, then the \
          reliability, congestion and SLO panels) and enforce their \
          exit-status contracts: exits 1 if any contract is broken, 2 on \
          an unknown id.")
    Term.(const run_experiments $ verbose_arg $ id $ quick)

(* Run the sanitizer, invariant monitors and determinism detector over the
   selected scenarios; non-zero exit on any finding so CI can gate on it.
   [--hashes] prints one `name hash' line per scenario (its baseline's
   hash) in place of the reports, the format
   test/golden/scenario_hashes.txt pins (regenerate it with `clic-sim check
   --hashes --seeds 3 > test/golden/scenario_hashes.txt'); a scenario with
   a finding, seeded runs included, still fails, its report on stderr.
   Backtraces are recorded, so a crash finding names its raise site. *)
let run_check verbose scenarios seeds hashes =
  Printexc.record_backtrace true;
  let names = if scenarios = [] then None else Some scenarios in
  let reports =
    try Check.run_all ~seeds ?names ()
    with Invalid_argument msg ->
      prerr_endline ("clic-sim: " ^ msg);
      exit 2
  in
  let bad = List.filter (fun r -> not (Check.ok r)) reports in
  if hashes then begin
    List.iter
      (fun r -> Printf.printf "%s %s\n" r.Check.scenario r.Check.baseline_hash)
      reports;
    List.iter (fun r -> Format.eprintf "%a@." Check.pp_report r) bad
  end
  else begin
    List.iter
      (fun r ->
        Format.printf "%a@." Check.pp_report r;
        if verbose then Format.printf "%s@." r.Check.output)
      reports;
    let total = List.length reports in
    if bad = [] then
      Format.printf "check: %d scenario(s) clean (%d tie-break seed(s))@."
        total seeds
    else
      Format.printf "check: %d of %d scenario(s) with violations@."
        (List.length bad) total
  end;
  if bad <> [] then exit 1

let check_cmd =
  let scenarios =
    Arg.(value & opt_all string []
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:
               "Experiment to check (repeatable); default is every \
                experiment.  See `clic-sim list'.")
  in
  let seeds =
    Arg.(value & opt (int_from 0) 3
         & info [ "seeds" ] ~docv:"N"
             ~doc:
               "Number of seeded same-timestamp orderings to compare \
                against the FIFO baseline.")
  in
  let hashes =
    Arg.(value & flag
         & info [ "hashes" ]
             ~doc:
               "Print each scenario's FIFO-baseline logical trace hash (one \
                `name hash' line per scenario, the format of \
                test/golden/scenario_hashes.txt) instead of the reports. \
                The $(b,--seeds) orderings still run: a scenario with a \
                finding exits 1, its report on stderr.  $(b,--seeds) 0 runs \
                the baselines only.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the analysis passes (object-lifecycle sanitizer, protocol \
          invariant monitors, determinism detector) over paper experiments")
    Term.(const run_check $ verbose_arg $ scenarios $ seeds $ hashes)

(* The chaos soak: randomized fault schedules (link weather, pool
   pressure, interrupt storms, crash/reboot) under the sanitizer passes,
   with evidence counters proving each stress axis actually fired.  As in
   `check', a crash finding names its raise site. *)
let run_soak _verbose seeds trials quick only list =
  Printexc.record_backtrace true;
  if list then
    List.iter print_endline Check.Soak.template_names
  else begin
    let seeds = if seeds = [] then Check.Soak.default_seeds else seeds in
    let only = if only = [] then None else Some only in
    let report =
      try Check.Soak.run ~seeds ?trials ~quick ?only ()
      with Invalid_argument msg ->
        prerr_endline ("clic-sim: " ^ msg);
        exit 2
    in
    Format.printf "%a@." Check.Soak.pp_summary report;
    let violations = Check.Soak.violations report in
    List.iter
      (fun v -> Format.printf "  %a@." Check.Violation.pp v)
      violations;
    let missing = Check.Soak.missing_evidence report in
    List.iter
      (fun m -> Format.printf "  missing evidence: %s@." m)
      missing;
    if Check.Soak.ok report then
      Format.printf "soak: %d trial(s) clean over %d seed(s)@."
        (List.length report.Check.Soak.s_trials)
        (List.length seeds)
    else begin
      Format.printf "soak: FAILED (%d violation(s), %d evidence gap(s))@."
        (List.length violations) (List.length missing);
      exit 1
    end
  end

let soak_cmd =
  let seeds =
    Arg.(value & opt_all int []
         & info [ "seed" ] ~docv:"N"
             ~doc:
               "Soak seed (repeatable); default is the pinned CI set \
                101, 202, 303.")
  in
  let trials =
    Arg.(value & opt (some (int_from 1)) None
         & info [ "trials" ] ~docv:"N"
             ~doc:
               "Trials per seed (at least 1), rotating through the \
                templates; default one per template.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Quarter-size traffic volumes.")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"NAME"
             ~doc:
               "Restrict to one template (repeatable); evidence demands \
                are then waived.  See $(b,--list).")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List soak templates.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos-soak the stack: randomized fault schedules (link faults, \
          pool pressure, interrupt storms, node crash/reboot) under the \
          sanitizer and invariant monitors, with evidence counters")
    Term.(
      const run_soak $ verbose_arg $ seeds $ trials $ quick $ only $ list)

(* ------------------------------------------------------------------ *)
(* Observability: timeline and metrics exports over the probe stream *)

let write_output ~out content =
  match out with
  | "-" -> print_string content
  | path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length content)

let scenario_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
       ~doc:"Experiment id (see `clic-sim list').")

let out_arg default =
  Arg.(value & opt string default
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file; `-' writes to stdout.")

let run_timeline verbose name out =
  ignore (verbose : bool);
  let sc = find_scenario name in
  let recorder, _rendered = Obs.Recorder.record sc in
  write_output ~out (Obs.Timeline.export recorder);
  if out <> "-" then
    Printf.printf
      "%d probe events; open in ui.perfetto.dev or chrome://tracing\n"
      (Obs.Recorder.count recorder)

let run_metrics verbose name out format bucket_us attribution =
  ignore (verbose : bool);
  let sc = find_scenario name in
  let recorder, _rendered = Obs.Recorder.record sc in
  let bucket_ns =
    if bucket_us = 0. then None else Some (int_of_float (bucket_us *. 1000.))
  in
  let m = Obs.Metrics.build ?bucket_ns recorder in
  (match format with
  | "csv" -> write_output ~out (Obs.Metrics.to_csv m)
  | "json" -> write_output ~out (Obs.Metrics.to_json m)
  | "summary" | _ ->
      if out = "-" then Obs.Metrics.pp_summary Format.std_formatter m
      else begin
        let buf = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer buf in
        Obs.Metrics.pp_summary fmt m;
        Format.pp_print_flush fmt ();
        write_output ~out (Buffer.contents buf)
      end);
  if attribution then begin
    let msgs = Obs.Attribution.messages recorder in
    Format.printf "@.per-message latency attribution (%d messages):@."
      (List.length msgs);
    Obs.Attribution.pp_table Format.std_formatter msgs
  end

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a scenario under the probe and export a Chrome \
          trace-event/Perfetto timeline: per-node process, ISR, \
          bottom-half, CLIC-module, DMA and wire tracks, with flow arrows \
          from each send syscall to its delivery.")
    Term.(
      const run_timeline $ verbose_arg $ scenario_pos
      $ out_arg "timeline.json")

let metrics_cmd =
  let format =
    Arg.(value & opt (enum [ ("csv", "csv"); ("json", "json");
                             ("summary", "summary") ]) "summary"
         & info [ "f"; "format" ] ~docv:"FMT"
             ~doc:"Export format: csv, json or summary.")
  in
  let bucket =
    Arg.(value & opt span_us 0.
         & info [ "bucket-us" ] ~docv:"US"
             ~doc:
               "Bucket width for utilization/rate series, at least 0.001 \
                (1 ns); the default 0 divides the run into ~200 buckets.")
  in
  let attribution =
    Arg.(value & flag
         & info [ "attribution" ]
             ~doc:
               "Also print the per-message latency attribution table (the \
                Figure 7 stage breakdown for every message).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a scenario under the probe and export time-series metrics: \
          CPU/bus utilization, interrupt rates, ring and egress queue \
          depths, channel windows, kernel pool bytes, message counters.")
    Term.(
      const run_metrics $ verbose_arg $ scenario_pos $ out_arg "-" $ format
      $ bucket $ attribution)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids")
    Term.(
      const (fun () ->
          List.iter print_endline Check.Scenario.names)
      $ const ())

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let () =
  (if Array.exists (String.equal "--verbose") Sys.argv then setup_logs true
   else setup_logs false);
  let info =
    Cmd.info "clic-sim" ~version:"1.0.0"
      ~doc:"Simulated reproduction of the CLIC lightweight protocol paper"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ latency_cmd; bandwidth_cmd; stream_cmd; chaos_cmd; run_cmd;
            check_cmd; soak_cmd; timeline_cmd; metrics_cmd; list_cmd ]))
