open Engine
open Cluster

let default_sizes =
  [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576; 4194304 ]

let quick_sizes = [ 1024; 65536; 1048576 ]

let reps_for size = if size >= 262144 then 3 else if size >= 16384 then 5 else 8

(* One bandwidth curve: a fresh two-node cluster per point (no state leaks
   between sizes), NetPIPE-style ping-pong measurement. *)
let bandwidth_series ~name ~config ~pair_of ~sizes =
  let s = Stats.Series.create ~name in
  List.iter
    (fun size ->
      let c = Net.create ~config ~n:2 () in
      let pair = pair_of c in
      let r = Measure.pingpong c pair ~size ~reps:(reps_for size) ~warmup:1 () in
      Stats.Series.add s ~x:(float_of_int size)
        ~y:r.Measure.pp_bandwidth_mbps)
    sizes;
  s

let config_mtu mtu = { Node.default_config with mtu }

let config_mtu_clic mtu clic_params =
  { Node.default_config with mtu; clic_params }

let clic_pair_of c = Measure.clic_pair c ~a:0 ~b:1 ()
let tcp_pair_of c = Measure.tcp_pair c ~a:0 ~b:1 ()

(* ------------------------------------------------------------------ *)
(* Figure 4: CLIC, {MTU 1500, 9000} x {0-copy, 1-copy} *)

let fig4 ?(quick = false) fmt =
  let sizes = if quick then quick_sizes else default_sizes in
  let curve name mtu params =
    bandwidth_series ~name
      ~config:(config_mtu_clic mtu params)
      ~pair_of:clic_pair_of ~sizes
  in
  let series =
    [
      curve "0-copy MTU 9000" 9000 Clic.Params.default;
      curve "1-copy MTU 9000" 9000 Clic.Params.one_copy;
      curve "0-copy MTU 1500" 1500 Clic.Params.default;
      curve "1-copy MTU 1500" 1500 Clic.Params.one_copy;
    ]
  in
  Render.series_table fmt
    ~title:"Figure 4: CLIC bandwidth (Mbit/s) for different MTUs, 0/1-copy"
    ~x_label:"size(B)" ~series;
  series

(* ------------------------------------------------------------------ *)
(* Figure 5: CLIC vs TCP/IP at MTU 9000 and 1500 *)

let fig5 ?(quick = false) fmt =
  let sizes = if quick then quick_sizes else default_sizes in
  let series =
    [
      bandwidth_series ~name:"CLIC 9000" ~config:(config_mtu 9000)
        ~pair_of:clic_pair_of ~sizes;
      bandwidth_series ~name:"CLIC 1500" ~config:(config_mtu 1500)
        ~pair_of:clic_pair_of ~sizes;
      bandwidth_series ~name:"TCP 9000" ~config:(config_mtu 9000)
        ~pair_of:tcp_pair_of ~sizes;
      bandwidth_series ~name:"TCP 1500" ~config:(config_mtu 1500)
        ~pair_of:tcp_pair_of ~sizes;
    ]
  in
  Render.series_table fmt
    ~title:"Figure 5: CLIC vs TCP/IP bandwidth (Mbit/s), 0-copy"
    ~x_label:"size(B)" ~series;
  series

(* ------------------------------------------------------------------ *)
(* Figure 6: CLIC, MPI-CLIC, MPI(TCP), PVM(TCP) *)

let fig6 ?(quick = false) fmt =
  let sizes = if quick then quick_sizes else default_sizes in
  let config = config_mtu 9000 in
  let series =
    [
      bandwidth_series ~name:"CLIC" ~config ~pair_of:clic_pair_of ~sizes;
      bandwidth_series ~name:"MPI-CLIC" ~config
        ~pair_of:(fun c -> Pairs.mpi_clic c ~a:0 ~b:1)
        ~sizes;
      bandwidth_series ~name:"MPI (TCP)" ~config
        ~pair_of:(fun c -> Pairs.mpi_tcp c ~a:0 ~b:1)
        ~sizes;
      bandwidth_series ~name:"PVM (TCP)" ~config
        ~pair_of:(fun c -> Pairs.pvm c ~a:0 ~b:1)
        ~sizes;
    ]
  in
  Render.series_table fmt
    ~title:
      "Figure 6: bandwidths (Mbit/s) of CLIC, MPI-CLIC, MPI and PVM on \
       TCP/IP"
    ~x_label:"size(B)" ~series;
  series

(* ------------------------------------------------------------------ *)
(* Figure 7: stage timing of a 1400-byte packet *)

type fig7_result = { stock : Stages.t; direct_isr : Stages.t }

(* One-way transfer of a single packet (a ping-pong would mix in the
   reply's spans and the channel acknowledgements of both directions):
   its message, split into stages by the spans the driver and CLIC_MODULE
   report on each node's CPU ([Cpu.traced]).  The events are read off the
   probe stream through a tap, so a recorder or checker installed around
   the figure still sees every one. *)
let fig7_once ~driver_params ~irq_dispatch =
  let config =
    { Node.default_config with irq_dispatch; driver_params;
      coalesce = Hw.Nic.no_coalesce }
  in
  let c = Net.create ~config ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  let tapped = ref [] in
  let restore =
    Probe.tap (fun ev -> tapped := (Sim.now c.Net.sim, ev) :: !tapped)
  in
  Fun.protect ~finally:restore (fun () ->
      ignore (Measure.stream c pair ~a:0 ~b:1 ~size:1400 ~messages:1));
  match
    Stages.messages (fun f ->
        List.iter (fun (at, ev) -> f at ev) (List.rev !tapped))
  with
  | [ m ] -> m
  | ms -> Fmt.failwith "fig7: %d messages, expected 1" (List.length ms)

let fig7 fmt =
  (* (a) the stock path: ISR -> bottom halves -> CLIC_MODULE. *)
  let a =
    fig7_once ~driver_params:Os_model.Driver.default_params
      ~irq_dispatch:(Time.us 5.)
  in
  (* (b) the proposed improvement (Figure 8b): the driver calls CLIC_MODULE
     directly from a trimmed ISR; the SK_BUFF staging copy disappears, so
     the interrupt-side latency drops from ~20 us to ~5 us. *)
  let b =
    fig7_once
      ~driver_params:
        {
          Os_model.Driver.default_params with
          Os_model.Driver.tx_routine = Time.us 4.0;
          isr_entry = Time.us 1.0;
          isr_per_packet = Time.us 1.0;
          bh_per_packet = Time.us 0.5;
          bh_bytes_per_s = 2e9;
          rx_mode = Os_model.Driver.Direct_from_isr;
        }
      ~irq_dispatch:(Time.us 2.5)
  in
  let row name us =
    [ name; Printf.sprintf "%.1f" (us a.Stages.stages);
      Printf.sprintf "%.1f" (us b.Stages.stages) ]
  in
  Render.section fmt
    "Figure 7: timing of a 1400-byte packet through the CLIC pipeline";
  Render.table fmt
    ~header:[ "stage"; "(a) stock us"; "(b) direct-ISR us" ]
    ~rows:
      Stages.
        [
          row "CLIC_MODULE (send)" (fun s -> s.module_tx_us);
          row "driver (send)" (fun s -> s.driver_tx_us);
          row "memory+PCI buses, flight" (fun s -> s.transit_us);
          row "driver: int" (fun s -> s.isr_us);
          row "driver: bottom half" (fun s -> s.bottom_half_us);
          row "CLIC_MODULE (recv+copy)" (fun s -> s.module_rx_us);
          row "one-way total" (fun s -> s.total_us);
        ]
    ();
  Format.fprintf fmt
    "paper: sender 0.7+4 us; bottom half %g us; CLIC_MODULE %g us; interrupt \
     path ~%g us in (a) vs ~%g us in (b)@.@.pipeline of run (a), host-side \
     stages:@."
    Paper.fig7a_bottom_half_us Paper.fig7a_module_rx_us
    Paper.fig7_interrupt_latency_us Paper.fig7b_interrupt_latency_us;
  Render.timeline fmt ~width:60
    (List.map
       (fun { Stages.stage; start; finish } ->
         let side =
           match Stages.side stage with
           | Some Sender -> "sender   "
           | Some Receiver | None -> "receiver "
         in
         { Render.label = side ^ Probe.Stage.name stage; start; finish })
       a.Stages.spans);
  { stock = a.Stages.stages; direct_isr = b.Stages.stages }

(* ------------------------------------------------------------------ *)
(* Table 1: headline scalars *)

type scalar = { name : string; paper : float; measured : float }

let latency_us ~config =
  let c = Net.create ~config ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  let r = Measure.pingpong c pair ~size:0 () in
  Time.to_us r.Measure.one_way

let bandwidth_at ~config ~pair_of size =
  let c = Net.create ~config ~n:2 () in
  let r =
    Measure.pingpong c (pair_of c) ~size ~reps:(reps_for size) ~warmup:1 ()
  in
  r.Measure.pp_bandwidth_mbps

let half_bandwidth_size points =
  let target =
    match List.rev points with [] -> 0. | (_, top) :: _ -> top /. 2.
  in
  let rec scan = function
    | (x, y) :: _ when y >= target -> x
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
        if y1 >= target then
          (* interpolate in log-size space *)
          let lx0 = log x0 and lx1 = log x1 in
          let frac = (target -. y0) /. (y1 -. y0) in
          exp (lx0 +. (frac *. (lx1 -. lx0)))
        else scan rest
    | [ (x, _) ] -> x
    | [] -> 0.
  in
  scan points

let tab1 ?(quick = false) fmt =
  let half_sizes =
    if quick then [ 1024; 4096; 16384; 65536; 262144 ]
    else [ 256; 1024; 2048; 4096; 8192; 16384; 32768; 65536; 131072; 262144 ]
  in
  let big = if quick then 1048576 else 4194304 in
  let c9000 = config_mtu 9000 and c1500 = config_mtu 1500 in
  (* One MTU-1500 sweep per stack, ending at [big]: its last point is
     that stack's MTU-1500 asymptote. *)
  let sweep pair_of =
    List.map
      (fun size ->
        (float_of_int size, bandwidth_at ~config:c1500 ~pair_of size))
      (half_sizes @ [ big ])
  in
  let lat = latency_us ~config:c1500 in
  let clic9000 = bandwidth_at ~config:c9000 ~pair_of:clic_pair_of big in
  let clic_sweep = sweep clic_pair_of in
  let clic1500 = snd (List.hd (List.rev clic_sweep)) in
  let tcp9000 = bandwidth_at ~config:c9000 ~pair_of:tcp_pair_of big in
  let mpi_clic =
    bandwidth_at ~config:c9000 ~pair_of:(fun c -> Pairs.mpi_clic c ~a:0 ~b:1)
      big
  in
  let mpi_tcp =
    bandwidth_at ~config:c9000 ~pair_of:(fun c -> Pairs.mpi_tcp c ~a:0 ~b:1)
      big
  in
  let half_clic = half_bandwidth_size clic_sweep in
  let half_tcp = half_bandwidth_size (sweep tcp_pair_of) in
  let scalars =
    [
      { name = "0-byte latency (us)"; paper = Paper.zero_byte_latency_us;
        measured = lat };
      { name = "CLIC asymptote, MTU 9000 (Mbit/s)";
        paper = Paper.clic_asymptote_mtu9000_mbps; measured = clic9000 };
      { name = "CLIC asymptote, MTU 1500 (Mbit/s)";
        paper = Paper.clic_asymptote_mtu1500_mbps; measured = clic1500 };
      { name = "CLIC / TCP best-case ratio";
        paper = Paper.clic_over_tcp_best_case; measured = clic9000 /. tcp9000 };
      { name = "MPI-CLIC / MPI-TCP ratio (long messages)";
        paper = Paper.mpi_clic_over_mpi_tcp_worst_case;
        measured = mpi_clic /. mpi_tcp };
      { name = "half-bandwidth message size, CLIC (B)";
        paper = float_of_int Paper.half_bandwidth_size_clic;
        measured = half_clic };
      { name = "half-bandwidth message size, TCP (B)";
        paper = float_of_int Paper.half_bandwidth_size_tcp;
        measured = half_tcp };
    ]
  in
  Render.section fmt "Table 1: headline results, paper vs reproduction";
  Render.table fmt
    ~header:[ "quantity"; "paper"; "measured" ]
    ~rows:
      (List.map
         (fun s ->
           [ s.name; Printf.sprintf "%.1f" s.paper;
             Printf.sprintf "%.1f" s.measured ])
         scalars)
    ();
  scalars

(* ------------------------------------------------------------------ *)
(* Figure 1 ablation: the four user-to-NIC data paths *)

let fig1 ?(quick = false) fmt =
  let big = if quick then 262144 else 1048576 in
  let paths =
    [
      ("path 1: PIO user->NIC", Clic.Params.Pio_direct);
      ("path 2: DMA user->NIC buffer (0-copy)", Clic.Params.Dma_nic_buffer);
      ("path 3: staged copy + direct DMA", Clic.Params.Staged_direct);
      ("path 4: staged copy + NIC buffer (1-copy)",
       Clic.Params.Staged_nic_buffer);
    ]
  in
  let rows =
    List.map
      (fun (name, data_path) ->
        let params = { Clic.Params.default with data_path } in
        let config = config_mtu_clic 1500 params in
        let lat = latency_us ~config in
        let bw = bandwidth_at ~config ~pair_of:clic_pair_of big in
        (name, lat, bw))
      paths
  in
  Render.section fmt
    "Figure 1 ablation: user-to-NIC data paths (MTU 1500)";
  Render.table fmt
    ~header:[ "data path"; "0B latency (us)"; "1MB bandwidth (Mbit/s)" ]
    ~rows:
      (List.map
         (fun (n, l, b) ->
           [ n; Printf.sprintf "%.1f" l; Printf.sprintf "%.1f" b ])
         rows)
    ();
  rows

(* ------------------------------------------------------------------ *)
(* Section 2 analysis: interrupt rate and CPU load vs coalescing *)

let stream_stats ~config ~size ~messages =
  let c = Net.create ~config ~n:2 () in
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  Measure.stream c pair ~a:0 ~b:1 ~size ~messages

let sec2 fmt =
  let settings =
    [
      ("no coalescing", Hw.Nic.no_coalesce);
      ("default (8 frames / 2us / 50us)", Hw.Nic.default_coalesce);
      ( "aggressive (32 frames / 30us / 200us)",
        { Hw.Nic.max_frames = 32; quiet = Time.us 30.; absolute = Time.us 200. }
      );
    ]
  in
  let rows =
    List.concat_map
      (fun mtu ->
        List.map
          (fun (name, coalesce) ->
            let config = { Node.default_config with mtu; coalesce } in
            let messages = 1000 in
            let r = stream_stats ~config ~size:(mtu - 12) ~messages in
            let per_packet =
              float_of_int r.Measure.receiver_interrupts
              /. float_of_int messages
            in
            ( Printf.sprintf "MTU %d, %s" mtu name,
              r.Measure.st_bandwidth_mbps,
              per_packet,
              r.Measure.receiver_cpu ))
          settings)
      [ 1500; 9000 ]
  in
  Render.section fmt
    "Section 2: interrupt coalescing under a saturated stream";
  Render.table fmt
    ~header:[ "configuration"; "Mbit/s"; "irqs/packet"; "rx CPU" ]
    ~rows:
      (List.map
         (fun (n, bw, ipp, cpu) ->
           [ n; Printf.sprintf "%.1f" bw; Printf.sprintf "%.2f" ipp;
             Printf.sprintf "%.2f" cpu ])
         rows)
    ();
  rows

(* ------------------------------------------------------------------ *)
(* Extension 1: NIC-side fragmentation (the paper's future work) *)

let ext1 fmt =
  let variants =
    [
      ("off: CLIC fragments to MTU", false, Clic.Params.default);
      ( "on: NIC fragments 32KB super-packets",
        true,
        { Clic.Params.default with use_nic_fragmentation = true } );
    ]
  in
  let rows =
    List.map
      (fun (name, nic_frag, clic_params) ->
        let config =
          { Node.default_config with mtu = 1500;
            nic_fragmentation = nic_frag; clic_params }
        in
        let messages = 300 in
        let r = stream_stats ~config ~size:32768 ~messages in
        ( name,
          r.Measure.st_bandwidth_mbps,
          float_of_int r.Measure.receiver_interrupts
          /. float_of_int messages ))
      variants
  in
  Render.section fmt
    "Extension: NIC-side fragmentation (32KB messages, link MTU 1500)";
  Render.table fmt
    ~header:[ "configuration"; "Mbit/s"; "irqs/message" ]
    ~rows:
      (List.map
         (fun (n, bw, ipm) ->
           [ n; Printf.sprintf "%.1f" bw; Printf.sprintf "%.2f" ipm ])
         rows)
    ();
  rows

(* ------------------------------------------------------------------ *)
(* Extension 2: channel bonding *)

let ext2 fmt =
  let case name nics pci_per_nic =
    let config = { Node.default_config with mtu = 9000; nics; pci_per_nic } in
    let r = stream_stats ~config ~size:8988 ~messages:600 in
    (name, r.Measure.st_bandwidth_mbps)
  in
  let rows =
    [
      case "1 NIC" 1 false;
      case "2 NICs, shared PCI bus" 2 false;
      case "2 NICs, one PCI segment each" 2 true;
    ]
  in
  Render.section fmt "Extension: channel bonding (MTU 9000 stream)";
  Render.table fmt
    ~header:[ "configuration"; "Mbit/s" ]
    ~rows:(List.map (fun (n, bw) -> [ n; Printf.sprintf "%.1f" bw ]) rows)
    ();
  Format.fprintf fmt
    "bonding only pays once each NIC has its own I/O bus: on the shared \
     33 MHz PCI bus the bus itself is the bottleneck (Section 1's point).@.";
  rows

(* ------------------------------------------------------------------ *)
(* Extension 3: broadcast *)

let ext3 ?(nodes = 8) fmt =
  let size = 65536 in
  let clic_time =
    let c = Net.create ~config:(config_mtu 9000) ~n:nodes () in
    let sim = c.Net.sim in
    let port = 40 in
    let finished = Ivar.create () in
    let peers = List.init (nodes - 1) (fun i -> i + 1) in
    List.iter
      (fun peer ->
        Node.spawn (Net.node c peer) (fun () ->
            Mpi_layer.Collectives.clic_bcast_peer (Net.node c peer).Node.clic
              ~root:0 ~port))
      peers;
    Node.spawn (Net.node c 0) (fun () ->
        Mpi_layer.Collectives.clic_bcast_root (Net.node c 0).Node.clic ~peers
          ~port size;
        Ivar.fill finished (Sim.now sim));
    Net.run c;
    match Ivar.peek finished with
    | Some t -> Time.to_us t
    | None -> nan
  in
  let mpi_time =
    let c = Net.create ~config:(config_mtu 9000) ~n:nodes () in
    let sim = c.Net.sim in
    let reg = Mpi_layer.Mpi_tcp.registry () in
    let finished = Ivar.create () in
    let remaining = ref nodes in
    for rank = 0 to nodes - 1 do
      let node = Net.node c rank in
      let mpi =
        Mpi_layer.Mpi.create node.Node.env ~rank
          (Mpi_layer.Mpi_tcp.transport reg node.Node.tcp ~rank)
          ()
      in
      Node.spawn node (fun () ->
          Mpi_layer.Collectives.mpi_bcast mpi ~rank ~root:0 ~size:nodes size;
          decr remaining;
          if !remaining = 0 then Ivar.fill finished (Sim.now sim))
    done;
    Net.run c;
    match Ivar.peek finished with
    | Some t -> Time.to_us t
    | None -> nan
  in
  let rows =
    [
      ("CLIC Ethernet broadcast + confirms", clic_time);
      ("MPI-TCP binomial tree", mpi_time);
    ]
  in
  Render.section fmt
    (Printf.sprintf "Extension: 64KB broadcast to %d nodes" (nodes - 1));
  Render.table fmt
    ~header:[ "method"; "completion (us)" ]
    ~rows:(List.map (fun (n, t) -> [ n; Printf.sprintf "%.1f" t ]) rows)
    ();
  rows


(* ------------------------------------------------------------------ *)
(* Section 3.2 comparison: CLIC vs GAMMA vs VIA design points *)

type rival_row = {
  r_name : string;
  r_latency_us : float;
  r_bw_mbps : float;
  r_idle_cpu : float;  (* receiver CPU fraction while waiting, idle link *)
}

let gamma_config =
  { Node.default_config with
    mtu = 9000;
    driver_params = Rivals.Gamma.driver_params;
    (* the GA620 of the paper's GAMMA numbers is a 64-bit PCI card whose
       onboard MIPS firmware adds noticeable per-frame latency *)
    pci_width_bytes = 8;
    pci_efficiency = 0.40;
    nic_firmware_per_frame = Time.us 6.;
    irq_dispatch = Time.us 2.5;
    coalesce = Hw.Nic.no_coalesce }

let via_config =
  { Node.default_config with
    mtu = 9000;
    driver_params = Rivals.Via.driver_params;
    (* no interrupt: the tiny dispatch models DMA-completion visibility *)
    irq_dispatch = Time.us 0.5;
    coalesce = Hw.Nic.no_coalesce }

let gamma_pair c ~a ~b =
  let mk i =
    let node = Net.node c i in
    Rivals.Gamma.create node.Node.env (List.hd node.Node.eths)
  in
  let ga = mk a and gb = mk b in
  {
    Measure.label = "gamma";
    a_setup = (fun () -> ());
    b_setup = (fun () -> ());
    a_send = (fun n -> Rivals.Gamma.send ga ~dst:b ~port:1 n);
    a_recv = (fun _ -> ignore (Rivals.Gamma.recv ga ~port:1));
    b_send = (fun n -> Rivals.Gamma.send gb ~dst:a ~port:1 n);
    b_recv = (fun _ -> ignore (Rivals.Gamma.recv gb ~port:1));
  }

let via_pair c ~a ~b =
  let mk i =
    let node = Net.node c i in
    Rivals.Via.create node.Node.env (List.hd node.Node.eths) ()
  in
  let va = mk a and vb = mk b in
  (* VIA completes one entry per MTU descriptor: consume until the whole
     message has landed. *)
  let recv_bytes v n =
    let got = ref 0 in
    while !got < n || (n = 0 && !got = 0) do
      let c = Rivals.Via.recv v in
      got := !got + max 1 c.Rivals.Via.vi_bytes
    done
  in
  {
    Measure.label = "via";
    a_setup = (fun () -> ());
    b_setup = (fun () -> ());
    a_send = (fun n -> Rivals.Via.send va ~dst:b n);
    a_recv = (fun n -> recv_bytes va n);
    b_send = (fun n -> Rivals.Via.send vb ~dst:a n);
    b_recv = (fun n -> recv_bytes vb n);
  }

(* Receiver CPU while waiting on a quiet link: a message arrives after
   1 ms; how busy was the receiving CPU in the meantime? *)
let idle_wait_cpu ~config ~pair_of =
  let c = Net.create ~config ~n:2 () in
  let pair = pair_of c ~a:0 ~b:1 in
  let nb = Net.node c 1 in
  let util = ref 0. in
  Process.spawn c.Net.sim (fun () ->
      pair.Measure.b_setup ();
      Os_model.Cpu.reset_stats (Node.cpu nb);
      pair.Measure.b_recv 64;
      util := Os_model.Cpu.utilization (Node.cpu nb) ~since:0);
  Process.spawn c.Net.sim (fun () ->
      pair.Measure.a_setup ();
      Process.delay (Time.ms 1.);
      pair.Measure.a_send 64);
  Net.run c;
  !util

let sec3 fmt =
  let row name config pair_of =
    let lat =
      let c = Net.create ~config ~n:2 () in
      let pair = pair_of c ~a:0 ~b:1 in
      Time.to_us
        (Measure.pingpong c pair ~size:0 ~reps:10 ~warmup:2 ())
          .Measure.one_way
    in
    let bw =
      let c = Net.create ~config ~n:2 () in
      let pair = pair_of c ~a:0 ~b:1 in
      (Measure.pingpong c pair ~size:1_048_576 ~reps:3 ~warmup:1 ())
        .Measure.pp_bandwidth_mbps
    in
    let idle = idle_wait_cpu ~config ~pair_of in
    { r_name = name; r_latency_us = lat; r_bw_mbps = bw; r_idle_cpu = idle }
  in
  let rows =
    [
      row "CLIC (OS path, unmodified driver)" (config_mtu 9000)
        (fun c ~a ~b -> Measure.clic_pair c ~a ~b ());
      row "GAMMA-like (own driver, active ports)" gamma_config gamma_pair;
      row "VIA-like (user level, polling)" via_config via_pair;
    ]
  in
  Render.section fmt
    "Section 3.2 comparison: CLIC vs GAMMA vs VIA design points (MTU 9000)";
  Render.table fmt
    ~header:
      [ "system"; "0B latency (us)"; "1MB bandwidth (Mbit/s)";
        "receiver CPU while waiting" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.r_name;
             Printf.sprintf "%.1f" r.r_latency_us;
             Printf.sprintf "%.1f" r.r_bw_mbps;
             Printf.sprintf "%.0f%%" (100. *. r.r_idle_cpu) ])
         rows)
    ();
  Format.fprintf fmt
    "paper reference: GAMMA %g us / ~%g Mbit/s on the GA620; VIA avoids the \
     OS but pays with polling and gives up reliable delivery.@."
    Paper.gamma_latency_us Paper.gamma_bandwidth_mbps;
  rows

(* ------------------------------------------------------------------ *)
(* Extension 4: multiprogramming — CLIC latency while the node also runs
   a bulk TCP transfer (the paper keeps the scheduler in the path exactly
   so concurrent communicating processes are served promptly). *)

let ext4 fmt =
  let run ~loaded =
    let c = Net.create ~n:2 () in
    let pinging = ref true in
    if loaded then begin
      (* competing bulk TCP transfer between the same two nodes, for as
         long as the pinger runs; the drain then blocks in [recv] *)
      let na = Net.node c 0 and nb = Net.node c 1 in
      Proto.Tcp.listen nb.Node.tcp ~port:9100;
      Node.spawn nb (fun () ->
          let conn = Proto.Tcp.accept nb.Node.tcp ~port:9100 in
          let rec drain () =
            Proto.Tcp.recv conn 65536;
            drain ()
          in
          drain ());
      Node.spawn na (fun () ->
          let conn = Proto.Tcp.connect na.Node.tcp ~dst:1 ~port:9100 in
          while !pinging do
            Proto.Tcp.send conn 65536
          done)
    end;
    let pair = Measure.clic_pair c ~a:0 ~b:1 () in
    (* the table shows the pings that complete in the first 200 ms *)
    let samples = ref [] in
    let sim = c.Net.sim in
    Process.spawn sim (fun () ->
        for _ = 1 to 204 do
          let t0 = Sim.now sim in
          pair.Measure.a_send 64;
          pair.Measure.a_recv 64;
          if Sim.now sim <= Time.ms 200. then
            samples := Time.diff (Sim.now sim) t0 / 2 :: !samples
        done;
        pinging := false);
    Process.spawn sim (fun () ->
        for _ = 1 to 204 do
          pair.Measure.b_recv 64;
          pair.Measure.b_send 64
        done);
    Net.run c;
    (* drop warmup *)
    match List.rev !samples with
    | _ :: _ :: _ :: _ :: rest when rest <> [] -> rest
    | l -> l
  in
  let idle = run ~loaded:false and loaded = run ~loaded:true in
  let row name samples =
    let rank =
      Workload.quantile (Array.of_list (List.map Time.to_us samples))
    in
    name
    :: List.map (fun p -> Printf.sprintf "%.1f" (rank p)) [ 50.; 95.; 99. ]
  in
  Render.section fmt
    "Extension: CLIC latency under competing TCP bulk load (64B ping-pong)";
  Render.table fmt
    ~header:[ "condition"; "p50 (us)"; "p95 (us)"; "p99 (us)" ]
    ~rows:[ row "idle node" idle; row "node also running TCP bulk" loaded ]
    ();
  Format.fprintf fmt
    "the latency-sensitive process is still served while bulk TCP \
     saturates the same CPUs; its latency grows by the kernel-preemption \
     quanta it now queues behind, but stays bounded (no starvation).@.";
  [ ("idle", idle); ("loaded", loaded) ]

(* ------------------------------------------------------------------ *)
(* Stress: the workload generators under clean and faulty networks — not a
   paper figure, but the robustness evidence an adopter would ask for. *)

let stress fmt =
  let run name ~fault mk =
    let config =
      match fault with
      | None -> Node.default_config
      | Some prob ->
          { Node.default_config with
            link_fault =
              Some
                (fun () ->
                  Hw.Fault.drop ~rng:(Rng.create ~seed:20030422) ~prob) }
    in
    let c = Net.create ~config ~n:6 () in
    let s = mk c in
    ( name, s.Workload.sent, s.Workload.delivered,
      float_of_int s.Workload.bytes /. 1e6,
      (Tally.net c).Tally.retransmissions )
  in
  let rows =
    [
      run "uniform random, clean" ~fault:None (fun c ->
          Workload.uniform_random c ~seed:1 ~messages_per_node:60 ());
      run "uniform random, 2% frame loss" ~fault:(Some 0.02) (fun c ->
          Workload.uniform_random c ~seed:1 ~messages_per_node:60 ());
      run "incast on node 0, clean" ~fault:None (fun c ->
          Workload.hotspot c ~seed:2 ~target:0 ~messages_per_node:60 ());
      run "incast on node 0, 2% frame loss" ~fault:(Some 0.02) (fun c ->
          Workload.hotspot c ~seed:2 ~target:0 ~messages_per_node:60 ());
    ]
  in
  Render.section fmt "Stress: synthetic workloads, 6 nodes, CLIC transport";
  Render.table fmt
    ~header:[ "workload"; "sent"; "delivered"; "MB"; "retransmissions" ]
    ~rows:
      (List.map
         (fun (n, s, d, mb, r) ->
           [ n; string_of_int s; string_of_int d; Printf.sprintf "%.1f" mb;
             string_of_int r ])
         rows)
    ();
  Format.fprintf fmt
    "every message is delivered exactly once in both conditions; loss only \
     shows up as retransmission work.@.";
  rows

(* ------------------------------------------------------------------ *)
(* Chaos: the reliability layer under a loss-rate x burstiness sweep plus
   duplication, jitter and link flaps — the adaptive-RTO evidence.  Not a
   paper figure: the paper only asserts CLIC "guarantees reliability". *)

type chaos_row = {
  c_name : string;
  c_latency_us : float;  (* 1KB ping-pong one-way under the fault *)
  c_goodput_mbps : float;
  c_elapsed_ms : float;
  c_tally : Tally.t;
  c_rto_mean_us : float;
  c_rto_max_us : float;
}

(* Each link gets its own independent fault instance: a fresh split of a
   profile-level root stream, so runs are reproducible and adding a link
   never perturbs the draws of another. *)
let chaos_profiles () =
  let seeded seed k =
    let root = Rng.create ~seed in
    Some (fun () -> k (Rng.split root))
  in
  [
    ("clean", None);
    ( "0.1% uniform",
      seeded 101 (fun rng -> Hw.Fault.drop ~rng ~prob:0.001) );
    ("1% uniform", seeded 102 (fun rng -> Hw.Fault.drop ~rng ~prob:0.01));
    ("3% uniform", seeded 103 (fun rng -> Hw.Fault.drop ~rng ~prob:0.03));
    ( "1% bursty (GE, ~20-frame bursts)",
      seeded 104 (fun rng ->
          Hw.Fault.gilbert_elliott ~rng ~p_good_to_bad:0.001
            ~p_bad_to_good:0.05 ~loss_bad:0.5 ()) );
    ( "3% bursty (GE, ~20-frame bursts)",
      seeded 105 (fun rng ->
          Hw.Fault.gilbert_elliott ~rng ~p_good_to_bad:0.003
            ~p_bad_to_good:0.05 ~loss_bad:0.5 ()) );
    ( "1% loss + 1% dup + 50us jitter",
      seeded 106 (fun rng ->
          Hw.Fault.compose
            [
              Hw.Fault.drop ~rng:(Rng.split rng) ~prob:0.01;
              Hw.Fault.duplicate ~rng:(Rng.split rng) ~prob:0.01;
              Hw.Fault.jitter ~rng:(Rng.split rng) ~max_delay:(Time.us 50.);
            ]) );
    ( "link flap: 4ms up / 250us down",
      Some
        (fun () ->
          Hw.Fault.flap ~up:(Time.ms 4.) ~down:(Time.us 250.)
            ~phase:(Time.ms 1.) ()) );
  ]

let chaos ?(quick = false) fmt =
  let messages = if quick then 120 else 400 in
  let size = 16384 in
  let reps = if quick then 16 else 48 in
  let row (name, link_fault) =
    let config = { Node.default_config with mtu = 9000; link_fault } in
    let latency_us =
      let c = Net.create ~config ~n:2 () in
      let pair = Measure.clic_pair c ~a:0 ~b:1 () in
      let r = Measure.pingpong c pair ~size:1024 ~reps ~warmup:1 () in
      Time.to_us r.Measure.one_way
    in
    let c = Net.create ~config ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 () in
    let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
    let rto_mean, rto_max =
      match
        Clic.Clic_module.channel_to
          (Clic.Api.kernel (Net.node c 0).Node.clic)
          ~peer:1
      with
      | Some chan ->
          let s = Clic.Channel.rto_stats chan in
          if Stats.Summary.count s = 0 then (0., 0.)
          else (Stats.Summary.mean s, Stats.Summary.max s)
      | None -> (0., 0.)
    in
    {
      c_name = name;
      c_latency_us = latency_us;
      c_goodput_mbps = r.Measure.st_bandwidth_mbps;
      c_elapsed_ms = Time.to_us r.Measure.elapsed /. 1000.;
      c_tally = Tally.net c;
      c_rto_mean_us = rto_mean;
      c_rto_max_us = rto_max;
    }
  in
  let rows = List.map row (chaos_profiles ()) in
  Render.section fmt
    (Printf.sprintf
       "Chaos: %d x %dKB stream + 1KB ping-pong under fault injection (MTU \
        9000)"
       messages (size / 1024));
  Render.table fmt
    ~header:
      [ "fault profile"; "pp us"; "Mbit/s"; "ms"; "retx"; "rto"; "frtx";
        "rto avg us"; "rto max us" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.c_name;
             Printf.sprintf "%.1f" r.c_latency_us;
             Printf.sprintf "%.1f" r.c_goodput_mbps;
             Printf.sprintf "%.1f" r.c_elapsed_ms;
             string_of_int r.c_tally.Tally.retransmissions;
             string_of_int r.c_tally.Tally.timeouts;
             string_of_int r.c_tally.Tally.fast_retransmits;
             Printf.sprintf "%.0f" r.c_rto_mean_us;
             Printf.sprintf "%.0f" r.c_rto_max_us;
           ])
         rows)
    ();
  (match rows with
  | clean :: _ ->
      Format.fprintf fmt
        "every run completes (no deadlock); recovery cost vs clean: worst \
         +%.1f ms stream time, +%.1f us ping-pong one-way.  'rto' counts \
         timer expiries, 'frtx' duplicate-ack fast retransmits; the RTO \
         columns show the armed timeout adapting from the initial %.0f us.@."
        (List.fold_left
           (fun acc r -> Float.max acc (r.c_elapsed_ms -. clean.c_elapsed_ms))
           0. rows)
        (List.fold_left
           (fun acc r -> Float.max acc (r.c_latency_us -. clean.c_latency_us))
           0. rows)
        (Time.to_us Clic.Params.default.Clic.Params.retransmit_timeout)
  | [] -> ());
  rows

(* ------------------------------------------------------------------ *)
(* Congested fabrics: the incast, cross-rack and regime-matrix panels.
   Not paper figures — the congestion-robustness evidence for CLIC's
   switched-fabric deployment story.  Every panel shares one fabric
   recipe and one run summary. *)

type flow_control = [ `Tail_drop | `Pause ]
type regime = [ flow_control | `Ecn ]
type topo = [ `Incast | `Cross_rack ]
type scheme = [ `Go_back_n | `Sack ]

let flow_control_name = function
  | `Tail_drop -> "tail-drop"
  | `Pause -> "802.3x PAUSE"

let regime_name = function
  | `Tail_drop -> "tail-drop"
  | `Pause -> "pause"
  | `Ecn -> "ecn"

let topo_name = function `Incast -> "incast" | `Cross_rack -> "cross-rack"

let scheme_name = function `Go_back_n -> "gbn" | `Sack -> "sack"

(* Server-class hosts on a Gigabit fabric: a 64-bit PCI bus DMAs frames
   at ~240 MB/s, twice wire speed, so a blind-dumping NIC really can
   overrun the bounded 6-frame switch uplink FIFO during a window burst.
   The three regimes differ only in how the fabric answers congestion:
   tail-drop keeps the classic cheap per-port 12-frame egress FIFOs and
   blind-dumping NICs; PAUSE drops the frame caps and lets the shared
   buffer plus 802.3x absorb the same bursts losslessly (provisioned for
   zero loss, {!Hw.Switch.protected_provisioning}); ECN keeps the shared
   buffer uncapped, marks CE once an egress queue crosses the threshold,
   and relies on DCTCP senders to back off.  The ECN fabric's NICs are
   flow-control capable so they respect uplink backpressure instead of
   blind-dumping (no PAUSE frame is ever generated: the switch has PAUSE
   off). *)
let congestion_config ~regime ~scheme =
  let clic_params =
    {
      Clic.Params.congestion with
      retx_scheme = scheme;
      dctcp = (match regime with `Ecn -> true | `Tail_drop | `Pause -> false);
    }
  in
  let base =
    {
      Node.default_config with
      clic_params;
      pci_width_bytes = 8;
      pci_efficiency = 0.9;
      switch_ingress_frames = Some 6;
    }
  in
  match regime with
  | `Tail_drop ->
      {
        base with
        switch_egress_frames = Some 12;
        switch_buffer = Some { Hw.Switch.default_buffer with pause = false };
      }
  | `Pause ->
      {
        base with
        switch_buffer = Some { Hw.Switch.default_buffer with pause = true };
        nic_pause = Some Hw.Nic.pause_802_3x;
      }
  | `Ecn ->
      {
        base with
        switch_buffer =
          Some
            {
              Hw.Switch.default_buffer with
              pause = false;
              ecn_threshold = clic_params.Clic.Params.ecn_threshold;
            };
        nic_pause = Some Hw.Nic.pause_802_3x;
      }

type run = { sent : int; delivered : int; elapsed_ms : float; tally : Tally.t }

let workload_run c (s : Workload.stats) =
  {
    sent = s.Workload.sent;
    delivered = s.Workload.delivered;
    elapsed_ms = Time.to_ms s.Workload.elapsed;
    tally = Tally.net c;
  }

(* The sent / delivered / ms columns every run-summary table starts with. *)
let run_cells r =
  [ string_of_int r.sent; string_of_int r.delivered;
    Printf.sprintf "%.1f" r.elapsed_ms ]

let paused_us (t : Tally.t) = float_of_int t.tx_paused_ns /. 1e3

(* ------------------------------------------------------------------ *)
(* Incast: N senders collapse onto one receiver through the switch, with
   tail-drop output queues vs a shared-buffer switch generating 802.3x
   PAUSE. *)

type incast_row = { in_regime : flow_control; in_run : run }

type gather_row = {
  ga_regime : flow_control;
  ga_completion_us : float;
  ga_tally : Tally.t;
}

let incast ?(quick = false) fmt =
  let senders = 4 and size = 8192 in
  let messages = if quick then 12 else 40 in
  let n = senders + 1 in
  let config (regime : flow_control) =
    congestion_config ~regime:(regime :> regime) ~scheme:`Go_back_n
  in
  let run regime =
    let c = Net.create ~config:(config regime) ~n () in
    let s =
      Workload.hotspot c ~seed:7 ~target:0 ~messages_per_node:messages ~size ()
    in
    { in_regime = regime; in_run = workload_run c s }
  in
  let rows = [ run `Tail_drop; run `Pause ] in
  Render.section fmt
    (Printf.sprintf
       "Incast: %d senders x %d x %dKB onto node 0, tail-drop vs 802.3x \
        PAUSE"
       senders messages (size / 1024));
  Render.table fmt
    ~header:
      [ "switch"; "sent"; "delivered"; "ms"; "retx"; "ingress drops";
        "egress drops"; "pause tx"; "paused us"; "peak buf B" ]
    ~rows:
      (List.map
         (fun r ->
           let t = r.in_run.tally in
           (flow_control_name r.in_regime :: run_cells r.in_run)
           @ [
               string_of_int t.retransmissions;
               string_of_int t.ingress_drops;
               string_of_int t.egress_drops;
               string_of_int t.switch_pause_tx;
               Printf.sprintf "%.0f" (paused_us t);
               string_of_int t.peak_buffer;
             ])
         rows)
    ();
  (* MPI gather is the same collapse dressed as a collective: every rank
     sends its contribution to the root at once. *)
  let gather_bytes = if quick then 16384 else 65536 in
  let gather regime =
    let c = Net.create ~config:(config regime) ~n () in
    let sim = c.Net.sim in
    let reg = Mpi_layer.Mpi_clic.registry () in
    let finished = Ivar.create () in
    let remaining = ref n in
    for rank = 0 to n - 1 do
      let node = Net.node c rank in
      let mpi =
        Mpi_layer.Mpi.create node.Node.env ~rank
          (Mpi_layer.Mpi_clic.transport reg node.Node.clic ~rank)
          ()
      in
      Node.spawn node (fun () ->
          Mpi_layer.Collectives.gather mpi ~rank ~root:0 ~size:n gather_bytes;
          decr remaining;
          if !remaining = 0 then Ivar.fill finished (Sim.now sim))
    done;
    Net.run c;
    {
      ga_regime = regime;
      ga_completion_us =
        (match Ivar.peek finished with Some t -> Time.to_us t | None -> nan);
      ga_tally = Tally.net c;
    }
  in
  let gather_rows = [ gather `Tail_drop; gather `Pause ] in
  Render.section fmt
    (Printf.sprintf "MPI gather under congestion: %d ranks x %dKB to root 0"
       n (gather_bytes / 1024));
  Render.table fmt
    ~header:
      [ "switch"; "completion us"; "retx"; "switch drops"; "pause tx";
        "paused us" ]
    ~rows:
      (List.map
         (fun g ->
           let t = g.ga_tally in
           [
             flow_control_name g.ga_regime;
             Printf.sprintf "%.1f" g.ga_completion_us;
             string_of_int t.retransmissions;
             string_of_int (Tally.switch_drops t);
             string_of_int t.switch_pause_tx;
             Printf.sprintf "%.0f" (paused_us t);
           ])
         gather_rows)
    ();
  (match rows with
  | [ tail; pause ] ->
      let t = tail.in_run.tally and p = pause.in_run.tally in
      Format.fprintf fmt
        "tail-drop loses %d frames at the switch (%d ingress + %d egress) \
         and recovers them with %d retransmissions; PAUSE loses %d, holding \
         senders off for %.0f us instead (%d PAUSE frames, peak buffer %dB \
         of %dB).@."
        (Tally.switch_drops t) t.ingress_drops t.egress_drops t.retransmissions
        (Tally.switch_drops p) (paused_us p) p.switch_pause_tx p.peak_buffer
        Hw.Switch.default_buffer.Hw.Switch.total_bytes
  | _ -> ());
  (rows, gather_rows)

(* ------------------------------------------------------------------ *)

type fabric_row = {
  fb_regime : flow_control;
  fb_run : run;
  fb_spine_pause : int;
  fb_tor_pause : int;
}

type reroute_row = {
  rr_run : run;
  rr_spine0_tx : int;
  rr_spine1_tx : int;
  rr_down_drops : int;
}

(* Cross-rack incast through an oversubscribed spine, tail-drop vs 802.3x
   PAUSE, plus spine-failure rerouting — the congestion and resilience
   behaviours a single star cannot express.

   Panel 1 runs on a 3-rack leaf/spine with ONE spine: six senders in the
   two remote racks stampede node 0, so each remote ToR funnels 3 Gb/s of
   offered load into its 1 Gb/s uplink and the spine funnels both trunks
   into tor0's.  Under tail-drop the trunk egress FIFOs overflow — the
   oversubscribed-uplink collapse.  Under 802.3x the spine's trunk-ingress
   watermarks XOFF the ToRs, the gated ToRs fill and XOFF the sender NICs,
   and the congestion tree visibly spreads hop by hop: spine PAUSE
   frames, ToR PAUSE frames, sender NICs off the wire — with zero loss.

   Panel 2 runs a 2-spine fabric with ECMP across both, kills spine0
   mid-workload ({!Cluster.Net.fail_switch}: ports drain, routes
   recompile around the corpse) and requires every message to arrive
   anyway over the surviving spine. *)
let fabric ?(quick = false) fmt =
  let messages = if quick then 8 else 24 in
  let size = if quick then 4096 else 8192 in
  let per_rack = 3 in
  let topo = Topology.leaf_spine ~racks:3 ~per_rack ~spines:1 () in
  let senders = List.init (2 * per_rack) (fun i -> per_rack + i) in
  let run (regime : flow_control) =
    let config =
      congestion_config ~regime:(regime :> regime) ~scheme:`Go_back_n
    in
    let c = Net.create_topo ~config ~topo () in
    let s =
      Workload.hotspot c ~seed:11 ~target:0 ~senders
        ~messages_per_node:messages ~size ()
    in
    let pause prefix = Hw.Switch.pause_frames_tx (Net.switch c prefix) in
    {
      fb_regime = regime;
      fb_run = workload_run c s;
      fb_spine_pause = pause "spine0.";
      fb_tor_pause = pause "tor0." + pause "tor1." + pause "tor2.";
    }
  in
  let rows = [ run `Tail_drop; run `Pause ] in
  Render.section fmt
    (Printf.sprintf
       "Cross-rack incast: %d remote senders x %d x %dKB onto node 0 \
        through one oversubscribed spine"
       (2 * per_rack) messages (size / 1024));
  Render.table fmt
    ~header:
      [ "fabric"; "sent"; "delivered"; "ms"; "retx"; "switch drops";
        "spine pause"; "tor pause"; "paused us"; "peak buf B" ]
    ~rows:
      (List.map
         (fun r ->
           let t = r.fb_run.tally in
           (flow_control_name r.fb_regime :: run_cells r.fb_run)
           @ [
               string_of_int t.retransmissions;
               string_of_int (Tally.switch_drops t);
               string_of_int r.fb_spine_pause;
               string_of_int r.fb_tor_pause;
               Printf.sprintf "%.0f" (paused_us t);
               string_of_int t.peak_buffer;
             ])
         rows)
    ();
  (match rows with
  | [ tail; pause ] ->
      Format.fprintf fmt
        "tail-drop loses %d frames at the oversubscribed trunks and repairs \
         them with %d retransmissions; 802.3x loses %d — the spine XOFFs \
         the ToRs (%d PAUSE frames) and the ToRs XOFF the senders (%d), a \
         congestion tree holding the stampede at the sources for %.0f us.@."
        (Tally.switch_drops tail.fb_run.tally)
        tail.fb_run.tally.retransmissions
        (Tally.switch_drops pause.fb_run.tally)
        pause.fb_spine_pause pause.fb_tor_pause (paused_us pause.fb_run.tally)
  | _ -> ());
  (* Spine failure under load: 2-way ECMP, then one spine dies mid-run. *)
  let topo2 = Topology.leaf_spine ~racks:2 ~per_rack:2 ~spines:2 () in
  let c =
    Net.create_topo
      ~config:(congestion_config ~regime:`Pause ~scheme:`Go_back_n)
      ~topo:topo2 ()
  in
  Sim.schedule c.Net.sim ~after:(Time.us 800.) (fun () ->
      Net.fail_switch c "spine0.")
  |> ignore;
  let s =
    Workload.uniform_random c ~seed:5
      ~messages_per_node:(if quick then 12 else 40)
      ~min_size:2048 ~max_size:8192 ()
  in
  let tor0 = Net.switch c "tor0." in
  let reroute =
    {
      rr_run = workload_run c s;
      rr_spine0_tx = Hw.Switch.trunk_tx_frames tor0 ~peer:"spine0.0";
      rr_spine1_tx = Hw.Switch.trunk_tx_frames tor0 ~peer:"spine1.0";
      rr_down_drops = Hw.Switch.down_drops (Net.switch c "spine0.");
    }
  in
  Render.section fmt "Spine failure: ECMP over 2 spines, spine0 dies at 800us";
  Render.table fmt
    ~header:
      [ "sent"; "delivered"; "retx"; "tor0->spine0"; "tor0->spine1";
        "dead-spine drops" ]
    ~rows:
      [
        [
          string_of_int reroute.rr_run.sent;
          string_of_int reroute.rr_run.delivered;
          string_of_int reroute.rr_run.tally.retransmissions;
          string_of_int reroute.rr_spine0_tx;
          string_of_int reroute.rr_spine1_tx;
          string_of_int reroute.rr_down_drops;
        ];
      ]
    ();
  Format.fprintf fmt
    "spine0 dies at 800us; routes recompile onto spine1 and all %d \
     messages still arrive (%d retransmissions cover the frames that died \
     with the spine).@."
    reroute.rr_run.sent reroute.rr_run.tally.retransmissions;
  (rows, reroute)

(* ------------------------------------------------------------------ *)
(* Congestion-regime matrix: {tail-drop, 802.3x PAUSE, ECN/DCTCP} x
   {incast star, cross-rack fabric} x {go-back-N, SACK}, plus a same-seed
   bursty-loss panel comparing the retransmit schemes byte for byte — the
   evidence that CLIC's reliability layer composes with the three
   congestion-control answers a switched fabric offers. *)

type congestion_cell = {
  cg_regime : regime;
  cg_topo : topo;
  cg_scheme : scheme;
  cg_run : run;
}

type bursty_row = { bu_scheme : scheme; bu_run : run }

let congestion_cell ~quick ~regime ~topo ~scheme =
  let config = congestion_config ~regime ~scheme in
  let messages = if quick then 8 else 20 in
  let size = 8192 in
  let c, s =
    match topo with
    | `Incast ->
        let c = Net.create ~config ~n:5 () in
        (c, Workload.hotspot c ~seed:13 ~target:0 ~messages_per_node:messages
              ~size ())
    | `Cross_rack ->
        let t = Topology.leaf_spine ~racks:3 ~per_rack:3 ~spines:1 () in
        let c = Net.create_topo ~config ~topo:t () in
        (* only the remote racks stampede, so every flow funnels 6 Gb/s of
           offered load through the two 1 Gb/s trunks into rack 0 *)
        (c, Workload.hotspot c ~seed:13 ~target:0
              ~senders:[ 3; 4; 5; 6; 7; 8 ] ~messages_per_node:messages ~size
              ())
  in
  {
    cg_regime = regime;
    cg_topo = topo;
    cg_scheme = scheme;
    cg_run = workload_run c s;
  }

(* Same-seed bursty loss (Gilbert–Elliott, ~20-frame bursts at 50% loss):
   the only difference between the two runs is the retransmit scheme, so
   the retx-bytes column is the scheme's wire bill for identical weather. *)
let bursty_run ~quick ~scheme =
  let clic_params = { Clic.Params.congestion with retx_scheme = scheme } in
  let root = Rng.create ~seed:909 in
  let link_fault =
    Some
      (fun () ->
        Hw.Fault.gilbert_elliott ~rng:(Rng.split root) ~p_good_to_bad:0.01
          ~p_bad_to_good:0.05 ~loss_bad:0.5 ())
  in
  let config = { Node.default_config with clic_params; link_fault } in
  let c = Net.create ~config ~n:2 () in
  let messages = if quick then 40 else 150 in
  let size = 8192 in
  let pair = Measure.clic_pair c ~a:0 ~b:1 () in
  let r = Measure.stream c pair ~a:0 ~b:1 ~size ~messages in
  {
    bu_scheme = scheme;
    bu_run =
      {
        sent = messages;
        delivered = messages;
        elapsed_ms = Time.to_us r.Measure.elapsed /. 1000.;
        tally = Tally.net c;
      };
  }

let congestion_matrix ?(quick = false) fmt =
  let cells =
    List.concat_map
      (fun regime ->
        List.concat_map
          (fun topo ->
            List.map
              (fun scheme -> congestion_cell ~quick ~regime ~topo ~scheme)
              [ `Go_back_n; `Sack ])
          [ `Incast; `Cross_rack ])
      [ `Tail_drop; `Pause; `Ecn ]
  in
  Render.section fmt
    "Congestion matrix: {tail-drop, 802.3x PAUSE, ECN/DCTCP} x {incast, \
     cross-rack} x {go-back-N, SACK}";
  Render.table fmt
    ~header:
      [ "regime"; "topology"; "retx"; "sent"; "delivered"; "ms"; "resends";
        "retx B"; "sw drops"; "pause tx"; "CE marks"; "CE echoes"; "sacked" ]
    ~rows:
      (List.map
         (fun r ->
           let t = r.cg_run.tally in
           [ regime_name r.cg_regime; topo_name r.cg_topo;
             scheme_name r.cg_scheme ]
           @ run_cells r.cg_run
           @ [
               string_of_int t.retransmissions;
               string_of_int t.retx_bytes;
               string_of_int (Tally.switch_drops t);
               string_of_int t.switch_pause_tx;
               string_of_int t.ecn_marks;
               string_of_int t.ce_echoes;
               string_of_int t.sacked_segments;
             ])
         cells)
    ();
  Format.fprintf fmt
    "the ECN rows keep the switch lossless without a single PAUSE frame: \
     CE marks above the %dKB egress threshold feed DCTCP back-off at the \
     senders.@."
    (Clic.Params.congestion.Clic.Params.ecn_threshold / 1024);
  let bursty =
    [ bursty_run ~quick ~scheme:`Go_back_n; bursty_run ~quick ~scheme:`Sack ]
  in
  Render.section fmt
    "Bursty loss, same seed: go-back-N vs SACK retransmit bytes";
  Render.table fmt
    ~header:
      [ "scheme"; "delivered"; "ms"; "resends"; "retx bytes"; "bytes saved";
        "sacked"; "timeouts" ]
    ~rows:
      (List.map
         (fun r ->
           let t = r.bu_run.tally in
           [
             scheme_name r.bu_scheme;
             string_of_int r.bu_run.delivered;
             Printf.sprintf "%.1f" r.bu_run.elapsed_ms;
             string_of_int t.retransmissions;
             string_of_int t.retx_bytes;
             string_of_int t.retx_bytes_saved;
             string_of_int t.sacked_segments;
             string_of_int t.timeouts;
           ])
         bursty)
    ();
  (match bursty with
  | [ gbn; sack ] ->
      Format.fprintf fmt
        "under identical burst weather SACK resends %d bytes against \
         go-back-N's %d: the peer's SACK blocks let %d segments sit out \
         the timeouts (%d bytes never resent).@."
        sack.bu_run.tally.retx_bytes gbn.bu_run.tally.retx_bytes
        sack.bu_run.tally.sacked_segments sack.bu_run.tally.retx_bytes_saved
  | _ -> ());
  (cells, bursty)

(* ------------------------------------------------------------------ *)
(* SLO panel: CLIC vs TCP serving an identical open-loop request-response
   workload while the fabric quietly degrades.  Three conditions share
   one seed and one arrival schedule: a healthy fabric; a fail-slow
   fabric (every link sags to an eighth of its rate for a mid-run window
   while two NICs serve 6x slower and one switch port stalls its egress
   pump);
   and the same fail-slow window with random frame loss on top.  Nothing
   announces itself — the gray window is visible only in the tail. *)

type system = [ `Clic | `Tcp ]
type condition = [ `Healthy | `Fail_slow | `Fail_slow_loss ]

let system_name = function `Clic -> "clic" | `Tcp -> "tcp"

let condition_name = function
  | `Healthy -> "healthy"
  | `Fail_slow -> "fail-slow"
  | `Fail_slow_loss -> "fail-slow+loss"

let slo_conditions : condition list = [ `Healthy; `Fail_slow; `Fail_slow_loss ]

type slo_row = {
  sl_system : system;
  sl_condition : condition;
  sl_requests : int;
  sl_completed : int;
  sl_stranded : int;
  sl_timeouts : int;
  sl_p50_us : float;
  sl_p99_us : float;
  sl_p999_us : float;
  sl_goodput_mbps : float;
}

let slo_fault_from = Time.us 250.

let slo_fault_until ~quick = if quick then Time.ms 3. else Time.ms 8.

let slo_config ~quick ~condition =
  let brownout () =
    Hw.Fault.brownout ~fraction:0.125 ~from_:slo_fault_from
      ~until_:(slo_fault_until ~quick) ()
  in
  match condition with
  | `Healthy -> Node.default_config
  | `Fail_slow ->
      { Node.default_config with link_fault = Some (fun () -> brownout ()) }
  | `Fail_slow_loss ->
      let rng = Rng.create ~seed:61409 in
      {
        Node.default_config with
        link_fault =
          Some
            (fun () ->
              Hw.Fault.compose
                [
                  brownout ();
                  Hw.Fault.drop ~rng:(Rng.split rng) ~prob:0.005;
                ]);
      }

let slo_inject ~quick ~condition c =
  match condition with
  | `Healthy -> ()
  | `Fail_slow | `Fail_slow_loss ->
      Workload.inject_gray c ~nic_nodes:[ 1; 2 ] ~nic_factor:6.0
        ~stall_nodes:[ 3 ] ~from_:slo_fault_from
        ~until_:(slo_fault_until ~quick) ()

(* The TCP rival under the same open-loop schedule: one persistent
   connection per (client, server) pair, requests serialized FIFO per
   connection so exact-size framing matches each response to its
   request.  Latency is charged from the scheduled arrival instant, as
   in [Workload.open_loop] — connection backlog counts. *)
let tcp_open_loop c ~seed ~mean_gap ~requests_per_node ~req_size ~resp_size
    ~deadline ~port =
  let n = Net.size c in
  let sim = c.Net.sim in
  let completed = ref 0 and timeouts = ref 0 and fired = ref 0 in
  let samples = ref [] in
  let t_first = ref max_int and t_last = ref 0 in
  for j = 0 to n - 1 do
    let node = Net.node c j in
    Proto.Tcp.listen node.Node.tcp ~port;
    Node.spawn node (fun () ->
        for _ = 1 to n - 1 do
          let conn = Proto.Tcp.accept node.Node.tcp ~port in
          Node.spawn node (fun () ->
              let rec echo () =
                Proto.Tcp.recv conn req_size;
                Proto.Tcp.send conn resp_size;
                echo ()
              in
              echo ())
        done)
  done;
  let mail = Array.init n (fun _ -> Array.init n (fun _ -> Mailbox.create ()))
  in
  for i = 0 to n - 1 do
    let node = Net.node c i in
    for j = 0 to n - 1 do
      if i <> j then
        Node.spawn node (fun () ->
            let conn = Proto.Tcp.connect node.Node.tcp ~dst:j ~port in
            let rec serve () =
              let t0 = Mailbox.recv mail.(i).(j) in
              Proto.Tcp.send conn req_size;
              Proto.Tcp.recv conn resp_size;
              let now = Sim.now sim in
              incr completed;
              samples := Time.to_us (Time.diff now t0) :: !samples;
              if deadline > 0 && Time.diff now t0 > deadline then
                incr timeouts;
              if now > !t_last then t_last := now;
              serve ()
            in
            serve ())
    done
  done;
  let root_rng = Rng.create ~seed in
  for i = 0 to n - 1 do
    let rng = Rng.split root_rng in
    let node = Net.node c i in
    Node.spawn node (fun () ->
        for _ = 1 to requests_per_node do
          let gap = max 1 (int_of_float (Rng.exponential rng ~mean:mean_gap))
          in
          Process.delay gap;
          let d = Rng.int rng (n - 1) in
          let dst = if d >= i then d + 1 else d in
          let now = Sim.now sim in
          incr fired;
          if now < !t_first then t_first := now;
          Mailbox.send mail.(i).(dst) now
        done)
  done;
  Net.run c;
  let arr = Array.of_list !samples in
  let elapsed = if !t_last > !t_first then Time.diff !t_last !t_first else 1 in
  let goodput =
    float_of_int (!completed * resp_size * 8) /. Time.to_s elapsed /. 1e6
  in
  (!fired, !completed, !timeouts, arr, goodput)

let slo ?(quick = false) fmt =
  let requests_per_node = if quick then 40 else 120 in
  let mean_gap = Time.us 200. in
  let req_size = 512 and resp_size = 2048 in
  let deadline = Time.ms 1. in
  let port = 9300 in
  let seed = 30901 in
  let clic_row condition =
    let c = Net.create ~config:(slo_config ~quick ~condition) ~n:4 () in
    slo_inject ~quick ~condition c;
    let s, r =
      Workload.open_loop c ~seed
        ~arrival:(Workload.Poisson { mean_gap })
        ~requests_per_node ~req_size ~resp_size ~deadline ~port ()
    in
    ignore (s : Workload.stats);
    {
      sl_system = `Clic;
      sl_condition = condition;
      sl_requests = r.Workload.slo_requests;
      sl_completed = r.Workload.slo_completed;
      sl_stranded = r.Workload.slo_stranded;
      sl_timeouts = r.Workload.slo_timeouts;
      sl_p50_us = r.Workload.slo_p50_us;
      sl_p99_us = r.Workload.slo_p99_us;
      sl_p999_us = r.Workload.slo_p999_us;
      sl_goodput_mbps = r.Workload.slo_goodput_mbps;
    }
  in
  let tcp_row condition =
    let c = Net.create ~config:(slo_config ~quick ~condition) ~n:4 () in
    slo_inject ~quick ~condition c;
    let fired, completed, timeouts, arr, goodput =
      tcp_open_loop c ~seed ~mean_gap:(float_of_int mean_gap)
        ~requests_per_node ~req_size ~resp_size ~deadline ~port
    in
    let rank = Workload.quantile arr in
    {
      sl_system = `Tcp;
      sl_condition = condition;
      sl_requests = fired;
      sl_completed = completed;
      sl_stranded = fired - completed;
      sl_timeouts = timeouts;
      sl_p50_us = rank 50.;
      sl_p99_us = rank 99.;
      sl_p999_us = rank 99.9;
      sl_goodput_mbps = goodput;
    }
  in
  let rows =
    List.map clic_row slo_conditions @ List.map tcp_row slo_conditions
  in
  Render.section fmt
    "Production SLOs: open-loop request-response under gray failure \
     (4 nodes, Poisson arrivals)";
  Render.table fmt
    ~header:
      [ "system"; "condition"; "done"; "timeouts"; "p50 (us)"; "p99 (us)";
        "p999 (us)"; "goodput (Mbit/s)" ]
    ~rows:
      (List.map
         (fun r ->
           [ system_name r.sl_system;
             condition_name r.sl_condition;
             Printf.sprintf "%d/%d" r.sl_completed r.sl_requests;
             string_of_int r.sl_timeouts;
             Printf.sprintf "%.1f" r.sl_p50_us;
             Printf.sprintf "%.1f" r.sl_p99_us;
             Printf.sprintf "%.1f" r.sl_p999_us;
             Printf.sprintf "%.1f" r.sl_goodput_mbps ])
         rows)
    ();
  Format.fprintf fmt
    "same seed, same arrival schedule: the gray window (links at an \
     eighth of their rate, two 6x-slow NICs, one stalling egress pump) \
     never drops the offered load by itself, so the damage shows up \
     purely in the latency tail — compare each system's p999 against \
     its healthy row.@.";
  rows
