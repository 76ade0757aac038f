(* The chaos-soak harness: randomized fault schedules against the full
   node stack, with every sanitizer pass watching.

   A soak run is a grid of trials: for each seed, [trials] cluster
   simulations are built from a rotating set of templates, each of which
   combines a traffic pattern with one stress axis — link weather
   (loss, duplication, jitter, frame corruption), kernel-pool pressure
   against the watermarks, an interrupt storm that must flip the driver
   into polling mode, or a node crash with reboot and channel
   re-establishment.  Every trial runs under the lifecycle sanitizer and
   the full invariant-monitor set (the same passes as `clic-sim check`),
   so a schedule that provokes a protocol bug fails loudly rather than
   just producing odd numbers.

   Besides violations, the harness demands *evidence*: a soak that never
   drove the pool past its hard watermark, never entered polling mode, or
   never re-established a channel after a crash was not soaking anything,
   so missing evidence is a failure too (unless the template set was
   narrowed).  The evidence counters come from the stack's own statistics
   and are accumulated per boot — a crashed kernel's counters are
   banked just before the hardware is rebooted. *)

open Engine
open Hw
open Os_model
open Cluster

(* What the trials of one soak accumulate: the stack's own counters,
   banked per boot, plus the three counts only the harness can see. *)
type acc = {
  mutable tally : Tally.t;
  mutable switch_failures : int;
  mutable open_loop : int;  (* open-loop requests answered under grayness *)
  mutable brownout_slowed : int;  (* frames delayed by link brownouts *)
}

let bank acc t = acc.tally <- Tally.add acc.tally t

(* Crash node [victim] after [at] and reboot it [downtime] later, banking
   the dead boot's counters before {!Node.reboot} replaces its objects. *)
let crash_reboot_at net acc victim ~at ~downtime =
  let victim = Net.node net victim in
  Process.spawn net.Net.sim (fun () ->
      Process.delay at;
      Node.crash victim;
      bank acc (Tally.boot victim);
      Process.delay downtime;
      Node.reboot victim)

(* ------------------------------------------------------------------ *)
(* Traffic helpers.  All loops are bounded (message counts, not wall
   clock), so every trial runs its simulation to completion and the
   lifecycle leak check stays on.  Senders survive peer death: a send
   that raises [Channel.Dead] backs off and retries — the retry is a
   fresh message (new id), which is what a real application would do. *)

let sender net ~rng ~from ~to_ ~count ~min_size ~max_size ~gap_us ~port =
  let node = Net.node net from in
  Node.spawn node (fun () ->
      for _ = 1 to count do
        let size = min_size + Rng.int rng (max_size - min_size + 1) in
        let rec attempt tries =
          if tries > 0 then
            match Clic.Api.send node.Node.clic ~dst:to_ ~port size with
            | () -> ()
            | exception Clic.Channel.Dead _ ->
                (* peer unreachable: back off, then retry on what is by
                   then a re-established channel (or give up) *)
                Process.delay (Time.us (200. +. Rng.float rng 300.));
                attempt (tries - 1)
        in
        attempt 6;
        Process.delay (Time.us (Rng.float rng gap_us))
      done)

(* ------------------------------------------------------------------ *)
(* Trial templates *)

type template = {
  tp_name : string;
  tp_descr : string;
  tp_run : quick:bool -> seed:int -> acc -> unit;
}

let scale ~quick n = if quick then max 1 (n / 4) else n

(* Fast-failure channel parameters: a dead peer is declared after a few
   hundred microseconds instead of seconds, so crash trials stay short. *)
let snappy_params =
  {
    Clic.Params.default with
    rto_min = Time.us 80.;
    rto_max = Time.us 600.;
    max_retries = 4;
  }

(* 1. Crash & recovery: ring traffic over three nodes; the middle node
   crashes mid-stream and reboots after a downtime, so peers must declare
   its channels dead, reject its pre-crash stragglers by epoch, and
   re-establish when traffic resumes. *)
let crash_reboot ~quick ~seed acc =
  let config = { Node.default_config with clic_params = snappy_params } in
  let net = Net.create ~config ~n:3 () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 120 in
  for i = 0 to 2 do
    sender net ~rng:(Rng.split rng) ~from:i ~to_:((i + 1) mod 3) ~count
      ~min_size:256 ~max_size:4096 ~gap_us:40. ~port:80
  done;
  crash_reboot_at net acc 1 ~at:(Time.us 900.) ~downtime:(Time.us 700.);
  Net.run net;
  bank acc (Tally.net net)

(* 2. Pool crunch: a tiny kernel pool with a large transmit window, so
   ring-full staging races past the soft and hard watermarks — advertised
   windows shrink, ack batching stretches, and at the hard mark the NIC
   sheds ingress frames, which retransmission must then cover. *)
let pool_crunch ~quick ~seed acc =
  let clic_params =
    {
      snappy_params with
      tx_window = 32;
      kmem_soft_frac = 0.4;
      kmem_hard_frac = 0.6;
    }
  in
  let config =
    { Node.default_config with clic_params; kmem_capacity = 32 * 1024 }
  in
  let net = Net.create ~config ~n:3 () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 80 in
  (* node 0 both blasts (staging pressure fills its pool) and is blasted
     (so its rx admission gate has frames to shed) *)
  sender net ~rng:(Rng.split rng) ~from:0 ~to_:1 ~count ~min_size:2048
    ~max_size:8192 ~gap_us:5. ~port:81;
  sender net ~rng:(Rng.split rng) ~from:1 ~to_:0 ~count ~min_size:2048
    ~max_size:8192 ~gap_us:5. ~port:81;
  sender net ~rng:(Rng.split rng) ~from:2 ~to_:0 ~count ~min_size:2048
    ~max_size:8192 ~gap_us:5. ~port:81;
  Net.run net;
  bank acc (Tally.net net)

(* 3. Interrupt storm: per-packet interrupts (no coalescing) under
   back-to-back small messages; the NAPI-enabled driver must cross its
   hot-IRQ threshold, switch to budgeted polling, and fall back to
   interrupts when the ring drains. *)
let irq_storm ~quick ~seed acc =
  let driver_params =
    {
      Driver.default_params with
      Driver.napi = true;
      napi_enter_gap = Time.us 25.;
      napi_enter_after = 3;
      napi_budget = 8;
      napi_interval = Time.us 10.;
    }
  in
  let config =
    {
      Node.default_config with
      clic_params = snappy_params;
      driver_params;
      coalesce = Nic.no_coalesce;
    }
  in
  let net = Net.create ~config ~n:2 () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 400 in
  sender net ~rng:(Rng.split rng) ~from:1 ~to_:0 ~count ~min_size:512
    ~max_size:1024 ~gap_us:2. ~port:82;
  Net.run net;
  bank acc (Tally.net net)

(* 4. Faulty mesh: every link carries composed weather — independent
   loss, duplication, reordering jitter and frame corruption (FCS drops
   at the MAC) — under all-to-all traffic, plus one crash/reboot cycle,
   because faults compose. *)
let faults_mesh ~quick ~seed acc =
  let fault_rng = Rng.create ~seed:(seed lxor 0x5A5A) in
  let mk_fault () =
    let rng = Rng.split fault_rng in
    Fault.compose
      [
        Fault.drop ~rng:(Rng.split rng) ~prob:0.02;
        Fault.duplicate ~rng:(Rng.split rng) ~prob:0.01;
        Fault.jitter ~rng:(Rng.split rng) ~max_delay:(Time.us 30.);
        Fault.corrupt ~rng:(Rng.split rng) ~prob:0.03;
      ]
  in
  let config =
    {
      Node.default_config with
      clic_params = { snappy_params with max_retries = 8 };
      link_fault = Some mk_fault;
    }
  in
  let net = Net.create ~config ~n:3 () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 100 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then
        sender net ~rng:(Rng.split rng) ~from:i ~to_:j ~count ~min_size:128
          ~max_size:3072 ~gap_us:60. ~port:83
    done
  done;
  crash_reboot_at net acc 2 ~at:(Time.us 1500.) ~downtime:(Time.us 900.);
  Net.run net;
  bank acc (Tally.net net)

(* 5. Incast storm: an N->1 stampede through the shared-buffer switch,
   once with 802.3x PAUSE end to end (the fabric must hold senders off
   instead of losing frames) and once against the tail-drop baseline
   (whose bounded FIFOs must shed load that retransmission then covers).
   Both halves run under the full monitor set, so a PAUSE deadlock, a
   buffer-ledger leak or a drop on the protected fabric fails loudly. *)
let incast_storm ~quick ~seed acc =
  let one ~regime ~seed =
    let config = Report.Figures.congestion_config ~regime ~scheme:`Go_back_n in
    let net = Net.create ~config ~n:5 () in
    let rng = Rng.create ~seed in
    let count = scale ~quick 32 in
    for i = 1 to 4 do
      sender net ~rng:(Rng.split rng) ~from:i ~to_:0 ~count ~min_size:4096
        ~max_size:8192 ~gap_us:5. ~port:84
    done;
    Net.run net;
    bank acc (Tally.net net)
  in
  one ~regime:`Pause ~seed;
  one ~regime:`Tail_drop ~seed:(seed lxor 0x3C3C)

(* 6. Fabric cut: cross-rack traffic over a 2-spine leaf/spine fabric
   with ECMP; one spine dies mid-run (ports drain, routes recompile onto
   the survivor) and later returns, and a node also crashes and reboots
   under the fabric — the topology-aware rewire path.  Retransmission
   must cover the frames that died inside the spine, and the full monitor
   set watches the buffer ledgers through the drain. *)
let fabric_cut ~quick ~seed acc =
  let config =
    {
      Node.default_config with
      clic_params = { snappy_params with max_retries = 8 };
      switch_ingress_frames = Some 6;
      switch_buffer = Some Switch.default_buffer;
      nic_pause = true;
    }
  in
  let topo = Topology.leaf_spine ~racks:2 ~per_rack:2 ~spines:2 () in
  let net = Net.create_topo ~config ~topo () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 60 in
  (* cross-rack pairs in both directions, so both spines carry flows *)
  List.iter
    (fun (from, to_) ->
      sender net ~rng:(Rng.split rng) ~from ~to_ ~count ~min_size:512
        ~max_size:6144 ~gap_us:30. ~port:85)
    [ (0, 2); (1, 3); (2, 1); (3, 0) ];
  Process.spawn net.Net.sim (fun () ->
      Process.delay (Time.us 700.);
      Net.fail_switch net "spine0.";
      acc.switch_failures <- acc.switch_failures + 1;
      Process.delay (Time.us 900.);
      Net.restore_switch net "spine0.");
  crash_reboot_at net acc 3 ~at:(Time.us 1200.) ~downtime:(Time.us 700.);
  Net.run net;
  bank acc (Tally.net net)

(* 7. ECN collapse: the incast stampede again, but on the ECN-provisioned
   fabric — uncapped egress, CE marking above the shared-buffer threshold,
   PAUSE generation off, DCTCP senders — under both retransmit schemes.
   The monitors watch that every CE mark was earned (occupancy really was
   above threshold) while the stampede completes without a single switch
   drop or PAUSE frame.  A third half runs SACK mode under Gilbert–Elliott
   burst loss on a point-to-point link, because the lossless ECN fabric
   never gives the SACK machinery a hole to advertise — that half is where
   the sacked-segment evidence (and the no-spurious-retransmit monitor's
   workout) comes from. *)
let ecn_collapse ~quick ~seed acc =
  let stampede ~scheme ~seed =
    let config = Report.Figures.congestion_config ~regime:`Ecn ~scheme in
    let net = Net.create ~config ~n:5 () in
    let rng = Rng.create ~seed in
    let count = scale ~quick 32 in
    for i = 1 to 4 do
      sender net ~rng:(Rng.split rng) ~from:i ~to_:0 ~count ~min_size:4096
        ~max_size:8192 ~gap_us:5. ~port:86
    done;
    Net.run net;
    bank acc (Tally.net net)
  in
  stampede ~scheme:`Go_back_n ~seed;
  stampede ~scheme:`Sack ~seed:(seed lxor 0x6A6A);
  let fault_rng = Rng.create ~seed:(seed lxor 0x1B1B) in
  let mk_fault () =
    Fault.gilbert_elliott ~rng:(Rng.split fault_rng) ~p_good_to_bad:0.01
      ~p_bad_to_good:0.05 ~loss_bad:0.5
  in
  let config =
    {
      Node.default_config with
      clic_params =
        { snappy_params with retx_scheme = `Sack; max_retries = 8 };
      link_fault = Some mk_fault;
    }
  in
  let net = Net.create ~config ~n:2 () in
  let rng = Rng.create ~seed in
  let count = scale ~quick 60 in
  sender net ~rng:(Rng.split rng) ~from:0 ~to_:1 ~count ~min_size:2048
    ~max_size:8192 ~gap_us:10. ~port:87;
  Net.run net;
  bank acc (Tally.net net)

(* 8. Gray soak: open-loop request-response traffic across a fail-slow
   window — every link sags to a fifth of its rate, two NICs serve 5x
   slower, one switch port stalls its egress pump periodically.  Nothing
   drops and nothing announces itself, so the only acceptable outcomes
   are "every request answered" and "every mechanism demonstrably
   engaged"; a stranded request is a harness failure. *)
let gray_soak ~quick ~seed acc =
  let from_ = Time.us 400. and until_ = Time.ms 3. in
  let faults = ref [] in
  let config =
    {
      Node.default_config with
      link_fault =
        Some
          (fun () ->
            let f = Fault.brownout ~fraction:0.2 ~from_ ~until_ in
            faults := f :: !faults;
            f);
    }
  in
  let net = Net.create ~config ~n:4 () in
  Workload.inject_gray net ~nic_nodes:[ 1; 2 ] ~nic_factor:5.0
    ~stall_nodes:[ 3 ] ~from_ ~until_ ();
  let rng = Rng.create ~seed in
  let _, slo =
    Workload.open_loop net
      ~seed:(Rng.int rng 1_000_000)
      ~arrival:(Workload.Poisson { mean_gap = Time.us 250. })
      ~requests_per_node:(scale ~quick 60) ~req_size:512 ~resp_size:2048
      ~port:88 ()
  in
  if slo.Workload.slo_stranded > 0 then
    failwith
      (Printf.sprintf "gray-soak: %d open-loop request(s) stranded"
         slo.Workload.slo_stranded);
  acc.open_loop <- acc.open_loop + slo.Workload.slo_completed;
  List.iter
    (fun f -> acc.brownout_slowed <- acc.brownout_slowed + Fault.slowed f)
    !faults;
  bank acc (Tally.net net)

let templates =
  [
    {
      tp_name = "crash-reboot";
      tp_descr = "node crash mid-stream, reboot, channel re-establishment";
      tp_run = crash_reboot;
    };
    {
      tp_name = "pool-crunch";
      tp_descr = "kernel pool driven past both watermarks under load";
      tp_run = pool_crunch;
    };
    {
      tp_name = "irq-storm";
      tp_descr = "per-packet interrupt storm forcing NAPI polling mode";
      tp_run = irq_storm;
    };
    {
      tp_name = "faults-mesh";
      tp_descr = "composed link faults (loss/dup/jitter/corruption) + crash";
      tp_run = faults_mesh;
    };
    {
      tp_name = "incast-storm";
      tp_descr = "N->1 stampede, 802.3x PAUSE fabric vs tail-drop baseline";
      tp_run = incast_storm;
    };
    {
      tp_name = "fabric-cut";
      tp_descr = "spine failure + node crash on a 2-spine leaf/spine fabric";
      tp_run = fabric_cut;
    };
    {
      tp_name = "ecn-collapse";
      tp_descr = "incast on the ECN/DCTCP fabric + SACK under bursty loss";
      tp_run = ecn_collapse;
    };
    {
      tp_name = "gray-soak";
      tp_descr = "open-loop SLO traffic across a fail-slow (gray) window";
      tp_run = gray_soak;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Running trials under the sanitizer passes *)

type trial_result = {
  tr_template : string;
  tr_seed : int;
  tr_violations : Violation.t list;
  tr_crashed : bool;  (* the harness itself raised — always a failure *)
}

type report = {
  s_trials : trial_result list;
  s_tally : Tally.t;
  s_switch_failures : int;
  s_open_loop : int;
  s_brownout_slowed : int;
  s_notes : string list;
  s_full_set : bool;
}

let violations r = List.concat_map (fun t -> t.tr_violations) r.s_trials

(* The evidence table, in summary order: label, the complaint when a
   full-set soak shows zero (every stress axis must actually have fired;
   [None] is reported but never demanded), and the reading. *)
let evidence : (string * string option * (report -> int)) list =
  let tally f r = f r.s_tally in
  [
    ( "messages delivered", Some "no message was delivered",
      tally (fun t -> t.delivered) );
    ( "hard-watermark ingress drops",
      Some "pool hard watermark never dropped a frame",
      tally (fun t -> t.pool_drops) );
    ( "bad-FCS frames dropped", Some "no corrupted frame reached a MAC",
      tally (fun t -> t.bad_fcs) );
    ( "poll-mode switches", Some "driver never switched into polling mode",
      tally (fun t -> t.poll_switches) );
    ( "packets via poll passes",
      Some "no packets were processed by poll passes",
      tally (fun t -> t.polled) );
    ("node crashes", Some "no node crashed", tally (fun t -> t.crashes));
    ( "channels re-established", Some "no channel was re-established",
      tally (fun t -> t.reestablishments) );
    ( "peer reboots noticed (newer epoch)",
      Some "no peer noticed a reboot (newer epoch)",
      tally (fun t -> t.peer_reboots) );
    ("stale-epoch frames rejected", None, tally (fun t -> t.stale_epoch_drops));
    ( "retransmissions", Some "nothing was ever retransmitted",
      tally (fun t -> t.retransmissions) );
    ("acks deferred under pressure", None, tally (fun t -> t.acks_deferred));
    ( "switch drops (ingress + egress)", Some "no switch ever dropped a frame",
      tally Tally.switch_drops );
    (* only switches generate PAUSE frames *)
    ( "802.3x PAUSE frames generated",
      Some "no 802.3x PAUSE frame was generated",
      tally (fun t -> t.switch_pause_tx) );
    ( "tx time XOFFed (ns)", Some "no transmitter was ever XOFFed",
      tally (fun t -> t.tx_paused_ns) );
    ( "frames carried on trunks", Some "no frame ever crossed a trunk",
      tally (fun t -> t.trunk_frames) );
    ( "switches failed mid-trial", Some "no switch was ever failed mid-trial",
      fun r -> r.s_switch_failures );
    ( "frames CE-marked (ECN)", Some "no frame was ever CE-marked",
      tally (fun t -> t.ecn_marks) );
    ( "segments covered by SACK blocks", Some "no segment was ever SACKed",
      tally (fun t -> t.sacked_segments) );
    ( "open-loop requests answered (gray)",
      Some "no open-loop request was ever answered",
      fun r -> r.s_open_loop );
    ( "frames slowed by link brownouts",
      Some "no link brownout ever slowed a frame",
      fun r -> r.s_brownout_slowed );
    ( "NIC fail-slow service added (ns)", Some "no NIC ever served fail-slow",
      tally (fun t -> t.slow_extra_ns) );
    ( "egress pump time stalled (ns)",
      Some "no switch egress pump ever stalled",
      tally (fun t -> t.egress_stall_ns) );
  ]

(* Demands are checked only when the full template set ran.  An empty list
   means the soak soaked. *)
let missing_evidence r =
  if not r.s_full_set then []
  else
    List.filter_map
      (fun (_, complaint, read) -> if read r > 0 then None else complaint)
      evidence

let ok r =
  violations r = []
  && (not (List.exists (fun t -> t.tr_crashed) r.s_trials))
  && missing_evidence r = []

(* One trial under the checker's sink: the lifecycle sanitizer and every
   invariant monitor (the determinism pass needs repeated runs and is the
   `check` command's job; the soak's axis is schedule breadth). *)
let run_trial (tp : template) ~quick ~seed acc =
  let sink = Sink.create () in
  Probe.install (Sink.on_event sink);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Probe.uninstall ())
      (fun () ->
        match tp.tp_run ~quick ~seed acc with
        | () -> None
        | exception e ->
            Some
              (Violation.crash ~time_ns:(Sink.now sink) e
                 (Printexc.get_raw_backtrace ())))
  in
  let crash = Option.to_list outcome in
  {
    tr_template = tp.tp_name;
    tr_seed = seed;
    tr_violations = Sink.finish sink @ crash;
    tr_crashed = crash <> [];
  }

let default_seeds = [ 101; 202; 303 ]

let run ?(seeds = default_seeds) ?(trials = List.length templates)
    ?(quick = false) ?only () =
  if trials <= 0 then invalid_arg "Soak.run: trials <= 0";
  let pool =
    match only with
    | None -> templates
    | Some names -> (
        match
          List.filter (fun tp -> List.mem tp.tp_name names) templates
        with
        | [] -> invalid_arg "Soak.run: no matching templates"
        | l -> l)
  in
  let acc =
    { tally = Tally.zero; switch_failures = 0; open_loop = 0;
      brownout_slowed = 0 }
  in
  let results = ref [] in
  List.iter
    (fun seed ->
      for k = 0 to trials - 1 do
        let tp = List.nth pool (k mod List.length pool) in
        (* distinct trial seeds per (seed, slot), reproducible across runs *)
        let trial_seed = seed + (k * 7717) in
        results := run_trial tp ~quick ~seed:trial_seed acc :: !results
      done)
    seeds;
  (* a rotation shorter than the pool skips templates just like [only] *)
  let full_set =
    List.length pool = List.length templates && trials >= List.length pool
  in
  {
    s_trials = List.rev !results;
    s_tally = acc.tally;
    s_switch_failures = acc.switch_failures;
    s_open_loop = acc.open_loop;
    s_brownout_slowed = acc.brownout_slowed;
    s_notes =
      (if full_set then []
       else [ "template set narrowed: evidence demands not enforced" ]);
    s_full_set = full_set;
  }

let template_names = List.map (fun tp -> tp.tp_name) templates

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_summary fmt r =
  Format.fprintf fmt "%-14s %8s %6s@." "template" "seed" "result";
  List.iter
    (fun t ->
      Format.fprintf fmt "%-14s %8d %6s@." t.tr_template t.tr_seed
        (if t.tr_violations = [] then "clean"
         else Printf.sprintf "%d!" (List.length t.tr_violations)))
    r.s_trials;
  Format.fprintf fmt "@.evidence over %d trial(s):@." (List.length r.s_trials);
  List.iter
    (fun (label, _, read) -> Format.fprintf fmt "  %-36s %d@." label (read r))
    evidence;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) r.s_notes
