(* Per-message latency attribution: Figure 7's stage split
   ([Report.Stages]) of every message in a recording, summarised. *)

open Report.Stages

let messages recorder = Report.Stages.messages (Recorder.iter recorder)

type percentiles = { p50_us : float; p90_us : float; p99_us : float }

let latency_percentiles msgs =
  let q =
    Cluster.Workload.quantile
      (Array.of_list (List.map (fun m -> m.stages.total_us) msgs))
  in
  { p50_us = q 50.; p90_us = q 90.; p99_us = q 99. }

let stage_means msgs =
  let n = max 1 (List.length msgs) in
  let f sel =
    List.fold_left (fun acc m -> acc +. sel m.stages) 0. msgs /. float_of_int n
  in
  {
    module_tx_us = f (fun s -> s.module_tx_us);
    driver_tx_us = f (fun s -> s.driver_tx_us);
    transit_us = f (fun s -> s.transit_us);
    isr_us = f (fun s -> s.isr_us);
    bottom_half_us = f (fun s -> s.bottom_half_us);
    module_rx_us = f (fun s -> s.module_rx_us);
    total_us = f (fun s -> s.total_us);
  }

let pp_table fmt msgs =
  Format.fprintf fmt
    "%-4s %-4s %-5s %-8s | %10s %10s %10s %10s %10s %10s | %10s@." "src"
    "dst" "msg" "bytes" "module-tx" "driver-tx" "transit" "isr"
    "bottom-hlf" "module-rx" "total-us";
  List.iter
    (fun m ->
      Format.fprintf fmt
        "%-4d %-4d %-5d %-8d | %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f | \
         %10.2f@."
        m.src m.dst m.msg_id m.bytes m.stages.module_tx_us
        m.stages.driver_tx_us m.stages.transit_us m.stages.isr_us
        m.stages.bottom_half_us m.stages.module_rx_us m.stages.total_us)
    msgs;
  if msgs <> [] then begin
    let mean = stage_means msgs in
    let p = latency_percentiles msgs in
    Format.fprintf fmt
      "%-24s | %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f | %10.2f@." "mean"
      mean.module_tx_us mean.driver_tx_us mean.transit_us mean.isr_us
      mean.bottom_half_us mean.module_rx_us mean.total_us;
    Format.fprintf fmt
      "total latency percentiles (nearest rank): p50 %.1fus p90 %.1fus p99 \
       %.1fus@."
      p.p50_us p.p90_us p.p99_us
  end
