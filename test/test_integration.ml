(* Integration tests: the paper's comparative claims, asserted against the
   reproduction with tolerances.  These use reduced sweeps (quick mode or
   direct measurements) to stay fast; EXPERIMENTS.md records the full
   figures. *)

open Engine
open Cluster

let check_bool = Alcotest.(check bool)

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let bandwidth ~mtu ?clic_params ~pair_name size =
  let config =
    match clic_params with
    | None -> { Node.default_config with mtu }
    | Some p -> { Node.default_config with mtu; clic_params = p }
  in
  let c = Net.create ~config ~n:2 () in
  let pair = Report.Pairs.of_name pair_name c ~a:0 ~b:1 in
  (Measure.pingpong c pair ~size ~reps:3 ~warmup:1 ())
    .Measure.pp_bandwidth_mbps

let test_zero_byte_latency_near_paper () =
  let c = Net.create ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 in
  let lat = Time.to_us (Measure.pingpong c pair ~size:0 ()).Measure.one_way in
  check_bool
    (Printf.sprintf "36us +-20%% (got %.1f)" lat)
    true
    (lat > 29. && lat < 44.)

let test_jumbo_beats_standard_mtu () =
  let b9000 = bandwidth ~mtu:9000 ~pair_name:"clic" 1_048_576 in
  let b1500 = bandwidth ~mtu:1500 ~pair_name:"clic" 1_048_576 in
  check_bool
    (Printf.sprintf "9000 (%.0f) > 1500 (%.0f)" b9000 b1500)
    true (b9000 > b1500);
  (* asymptotes near the paper's 600 / 450 Mbit/s *)
  check_bool "9000 in [500,700]" true (b9000 > 500. && b9000 < 700.);
  check_bool "1500 in [380,530]" true (b1500 > 380. && b1500 < 530.)

let test_zero_copy_beats_one_copy_more_at_1500 () =
  let gap mtu =
    let zero = bandwidth ~mtu ~pair_name:"clic" 1_048_576 in
    let one =
      bandwidth ~mtu ~clic_params:Clic.Params.one_copy ~pair_name:"clic"
        1_048_576
    in
    (zero -. one) /. zero
  in
  let gap1500 = gap 1500 and gap9000 = gap 9000 in
  check_bool "0-copy wins at 1500" true (gap1500 > 0.);
  check_bool "0-copy wins at 9000" true (gap9000 >= 0.);
  check_bool
    (Printf.sprintf "effect larger at 1500 (%.2f vs %.2f)" gap1500 gap9000)
    true (gap1500 > gap9000)

let test_clic_more_than_twice_tcp () =
  let clic = bandwidth ~mtu:9000 ~pair_name:"clic" 1_048_576 in
  let tcp = bandwidth ~mtu:9000 ~pair_name:"tcp" 1_048_576 in
  check_bool
    (Printf.sprintf "clic (%.0f) > 2 x tcp (%.0f)" clic tcp)
    true
    (clic > 2. *. tcp)

let test_clic_ramps_faster_than_tcp () =
  (* The half-bandwidth crossover: CLIC reaches half its asymptote at a
     smaller message size than TCP does. *)
  let half name =
    let top = bandwidth ~mtu:1500 ~pair_name:name 1_048_576 in
    let rec scan = function
      | [] -> 1_048_576
      | size :: rest ->
          if bandwidth ~mtu:1500 ~pair_name:name size >= top /. 2. then size
          else scan rest
    in
    scan [ 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
  in
  let clic_half = half "clic" and tcp_half = half "tcp" in
  check_bool
    (Printf.sprintf "clic half at %dB <= tcp half at %dB" clic_half tcp_half)
    true
    (clic_half <= tcp_half);
  check_bool "clic half-point is a few KB" true
    (clic_half >= 1024 && clic_half <= 16384)

let test_mpi_clic_over_mpi_tcp () =
  let mc = bandwidth ~mtu:9000 ~pair_name:"mpi-clic" 1_048_576 in
  let mt = bandwidth ~mtu:9000 ~pair_name:"mpi-tcp" 1_048_576 in
  check_bool
    (Printf.sprintf "mpi-clic (%.0f) >= 1.5 x mpi-tcp (%.0f)" mc mt)
    true
    (mc >= 1.5 *. mt)

let test_mpi_clic_hugs_raw_clic () =
  let raw = bandwidth ~mtu:9000 ~pair_name:"clic" 1_048_576 in
  let mpi = bandwidth ~mtu:9000 ~pair_name:"mpi-clic" 1_048_576 in
  check_bool "within 10% of raw CLIC" true (mpi > 0.9 *. raw)

let test_pvm_is_lowest_curve () =
  let pvm = bandwidth ~mtu:9000 ~pair_name:"pvm" 1_048_576 in
  let mpi_tcp = bandwidth ~mtu:9000 ~pair_name:"mpi-tcp" 1_048_576 in
  let mpi_clic = bandwidth ~mtu:9000 ~pair_name:"mpi-clic" 1_048_576 in
  check_bool
    (Printf.sprintf "pvm (%.0f) below mpi-tcp (%.0f)" pvm mpi_tcp)
    true (pvm < mpi_tcp);
  check_bool "pvm far below mpi-clic" true (pvm < mpi_clic /. 2.)

let test_fig7_direct_isr_faster () =
  let { Report.Figures.stock; direct_isr } = Report.Figures.fig7 null_fmt in
  check_bool "direct-ISR path is faster" true
    (direct_isr.total_us < stock.total_us);
  check_bool "bottom half eliminated in (b)" true
    (direct_isr.bottom_half_us = 0.);
  check_bool "bottom half near the paper's 15us in (a)" true
    (stock.bottom_half_us > 8. && stock.bottom_half_us < 22.)

let test_coalescing_reduces_interrupt_rate () =
  let irqs_per_packet coalesce =
    let config = { Node.default_config with mtu = 1500; coalesce } in
    let c = Net.create ~config ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 in
    let r = Measure.stream c pair ~a:0 ~b:1 ~size:1488 ~messages:400 in
    float_of_int r.Measure.receiver_interrupts /. 400.
  in
  let without = irqs_per_packet Hw.Nic.no_coalesce in
  let with_ =
    irqs_per_packet
      { Hw.Nic.max_frames = 16; quiet = Time.us 30.; absolute = Time.us 200. }
  in
  check_bool
    (Printf.sprintf "coalescing %.2f < %.2f irqs/pkt" with_ without)
    true (with_ < without)

let test_interrupt_interval_matches_section2 () =
  (* Section 2: a saturated MTU-1500 gigabit stream means a frame every
     ~12us on the wire. *)
  let config =
    { Node.default_config with mtu = 1500; coalesce = Hw.Nic.no_coalesce }
  in
  let c = Net.create ~config ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size:1488 ~messages:500 in
  let us_per_packet = Time.to_us r.Measure.elapsed /. 500. in
  (* our pipeline is PCI/CPU-bound above the 12us wire minimum *)
  check_bool
    (Printf.sprintf "inter-packet %.1fus in [12,40]" us_per_packet)
    true
    (us_per_packet >= 12. && us_per_packet < 40.)

let test_bonding_improves_throughput () =
  let rows = Report.Figures.ext2 null_fmt in
  match rows with
  | [ (_, single); (_, shared_bus); (_, dual_bus) ] ->
      check_bool
        (Printf.sprintf "dual-bus bonding %.0f > single %.0f" dual_bus single)
        true
        (dual_bus > single *. 1.3);
      check_bool "shared bus stays bus-capped" true (shared_bus < dual_bus)
  | _ -> Alcotest.fail "unexpected ext2 shape"

let test_clic_broadcast_beats_mpi_tree () =
  let rows = Report.Figures.ext3 ~nodes:6 null_fmt in
  match rows with
  | [ (_, clic_t); (_, mpi_t) ] ->
      check_bool
        (Printf.sprintf "bcast %.0fus < tree %.0fus" clic_t mpi_t)
        true (clic_t < mpi_t)
  | _ -> Alcotest.fail "unexpected ext3 shape"

let test_nic_fragmentation_reduces_interrupts () =
  let rows = Report.Figures.ext1 null_fmt in
  match rows with
  | [ (_, bw_off, ipm_off); (_, bw_on, ipm_on) ] ->
      check_bool
        (Printf.sprintf "irqs/message: frag on %.2f << off %.2f" ipm_on
           ipm_off)
        true
        (ipm_on < ipm_off /. 4.);
      check_bool
        (Printf.sprintf "bandwidth not hurt (%.0f vs %.0f)" bw_on bw_off)
        true
        (bw_on > bw_off *. 0.9)
  | _ -> Alcotest.fail "unexpected ext1 shape"

let test_latency_under_load_bounded () =
  match Report.Figures.ext4 null_fmt with
  | [ (_, idle); (_, loaded) ] ->
      let p50 l =
        let arr = Array.of_list (List.sort compare l) in
        arr.(Array.length arr / 2)
      in
      let i = p50 idle and l = p50 loaded in
      check_bool "load costs latency" true (l > i);
      check_bool "but stays bounded (< 5ms)" true (l < Time.ms 5.)
  | _ -> Alcotest.fail "unexpected ext4 shape"

let test_asymptote_matches_analytic_bound () =
  (* The MTU-9000 asymptote must sit just under the analytic PCI bound:
     frame bytes over the derated 33 MHz/32-bit bus plus per-transaction
     setup, per 8988-byte CLIC payload.  The simulation should come within
     15% of the closed form (it adds firmware, wire and CPU stages). *)
  let cfg = Node.default_config in
  let frame_bytes = 9000 + 14 in
  let pci_rate = 132e6 *. cfg.Node.pci_efficiency in
  let per_packet_s = (float_of_int frame_bytes /. pci_rate) +. 0.9e-6 in
  let bound_mbps = float_of_int (8988 * 8) /. per_packet_s /. 1e6 in
  let measured = bandwidth ~mtu:9000 ~pair_name:"clic" 4_194_304 in
  check_bool
    (Printf.sprintf "measured %.0f within (%.0f .. %.0f)" measured
       (0.85 *. bound_mbps) bound_mbps)
    true
    (measured <= bound_mbps && measured >= 0.85 *. bound_mbps)

let test_stress_exactly_once () =
  List.iter
    (fun (name, sent, delivered, _, _) ->
      check_bool (name ^ ": exactly once") true (sent = delivered))
    (Report.Figures.stress null_fmt)

let suite =
  [
    ("0-byte latency", `Quick, test_zero_byte_latency_near_paper);
    ("jumbo beats 1500", `Slow, test_jumbo_beats_standard_mtu);
    ("0-copy vs 1-copy", `Slow, test_zero_copy_beats_one_copy_more_at_1500);
    ("clic > 2x tcp", `Slow, test_clic_more_than_twice_tcp);
    ("clic ramps faster", `Slow, test_clic_ramps_faster_than_tcp);
    ("mpi-clic >= 1.5x mpi-tcp", `Slow, test_mpi_clic_over_mpi_tcp);
    ("mpi-clic hugs clic", `Slow, test_mpi_clic_hugs_raw_clic);
    ("pvm lowest", `Slow, test_pvm_is_lowest_curve);
    ("fig7 direct isr", `Quick, test_fig7_direct_isr_faster);
    ("coalescing", `Quick, test_coalescing_reduces_interrupt_rate);
    ("interrupt interval", `Quick, test_interrupt_interval_matches_section2);
    ("channel bonding", `Quick, test_bonding_improves_throughput);
    ("broadcast vs tree", `Quick, test_clic_broadcast_beats_mpi_tree);
    ("latency under load", `Quick, test_latency_under_load_bounded);
    ("analytic PCI bound", `Slow, test_asymptote_matches_analytic_bound);
    ("stress exactly-once", `Slow, test_stress_exactly_once);
    ("nic fragmentation", `Quick, test_nic_fragmentation_reduces_interrupts);
  ]
