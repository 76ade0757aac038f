(* The benchmark worker.  Each invocation runs in a fresh process, so
   heap and GC state never carry over between measurements, and prints
   what it measured as one JSON line on stdout.  run.py turns those lines
   into the benchmark's metrics; README.md explains both.

     suite.exe info [--smoke]
         OCaml version, workload sizes and part names, for run-set headers
     suite.exe setup WORKLOAD SEED [--smoke]
         exits at the workload's first simulated event (run.py times it)
     suite.exe iter WORKLOAD SEED [--smoke] [--part N] [--spans]
                    [--inject strand]
         one untraced run of the workload (or of its part N): wall clock,
         allocation, heap, events, and per part the simulated results and
         the output checks that failed
     suite.exe traced WORKLOAD SEED [--smoke]
         the whole workload with a streaming probe sink installed, plus the
         per-layer measurements that need one

   Every layer is measured from outside: by reading probe events and
   public counters, and by timing calls into public functions.  The
   spans recorded around those calls are the benchmark's own; [--spans]
   adds them to the JSON line. *)

open Engine
open Cluster

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

type scale = Full | Smoke

(* ------------------------------------------------------------------ *)
(* JSON output *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec write b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        l;
      Buffer.add_char b '}'

let print_json v =
  let b = Buffer.create 4096 in
  write b v;
  print_endline (Buffer.contents b)

let nums l = Obj (List.map (fun (k, v) -> (k, Num v)) l)

(* ------------------------------------------------------------------ *)
(* Benchmark spans: wall-clock intervals around calls into the layers,
   each with its parent and the simulation events it fired. *)

type span = {
  id : int;
  parent : int;  (* 0 = top level *)
  name : string;
  t0 : float;
  t1 : float;
  events : int;
}

let tracing_spans = ref false
let spans = ref []
let open_spans = ref [ 0 ]
let next_span = ref 1

let span name f =
  if not !tracing_spans then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = List.hd !open_spans in
    open_spans := id :: !open_spans;
    let e0 = Sim.global_events_executed () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      open_spans := List.tl !open_spans;
      spans :=
        { id; parent; name; t0; t1; events = Sim.global_events_executed () - e0 }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

let span_seconds prefix =
  List.fold_left
    (fun acc s ->
      if String.starts_with ~prefix s.name then acc +. (s.t1 -. s.t0) else acc)
    0. !spans

let spans_json () =
  Arr
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", Str s.name);
             ("t0", Num s.t0);
             ("t1", Num s.t1);
             ("events", Int s.events);
           ])
       !spans)

(* ------------------------------------------------------------------ *)
(* Workloads.  Each is a list of parts: independent pieces of work that
   build their own clusters, so run.py can time each part in its own
   process and repeat it. *)

type outcome = {
  attempted : int;
  failed : int;
  results : (string * float) list;
      (* simulated results: identical for identical inputs *)
  broken : string list;  (* output checks that failed *)
}

type part = { pname : string; run : seed:int -> inject:bool -> outcome }

type workload = {
  name : string;
  size : scale -> string;
  nodes : int;  (* node count of the bare-engine comparison mesh *)
  parts : scale -> part list;
  start : (scale -> seed:int -> unit) option;
      (* the workload up to its first simulated event, for [setup];
         [None] runs the first part *)
  replayed : (scale -> string) option;
      (* the scenario whose recorded probe stream is replayed through the
         checker's passes to time them *)
}

let find_scenario name =
  match Check.Scenario.find name with
  | Some sc -> sc
  | None -> failwith ("no scenario " ^ name)

let count_failed values =
  List.length (List.filter (fun v -> not (Float.is_finite v && v > 0.)) values)

(* paper: Table 1 and Figures 4-6, two-node NetPIPE over CLIC, TCP, MPI
   and PVM.  The model has no randomness here, so the seed is unused. *)

(* The model's Table 1 error when this benchmark was defined (24.99%),
   plus the 0.1-point regression bound. *)
let paper_error_limit_pct = 25.09

let tab1 ~seed:_ ~inject:_ =
  let scalars = Report.Figures.tab1 null_fmt in
  let error_pct =
    100.
    *. List.fold_left
         (fun acc (s : Report.Figures.scalar) ->
           acc +. (Float.abs (s.measured -. s.paper) /. s.paper))
         0. scalars
    /. float_of_int (List.length scalars)
  in
  let measured = List.map (fun (s : Report.Figures.scalar) -> s.measured) scalars in
  {
    attempted = List.length measured;
    failed = count_failed measured;
    results =
      ("paper_error_pct", error_pct)
      :: List.map (fun (s : Report.Figures.scalar) -> (s.name, s.measured)) scalars;
    broken =
      (if not (error_pct <= paper_error_limit_pct) then
         [ Printf.sprintf "Table 1 error %.3f%% exceeds %.2f%%" error_pct
             paper_error_limit_pct ]
       else []);
  }

let figure fig ~seed:_ ~inject:_ =
  let points =
    List.concat_map (fun s -> List.map snd (Stats.Series.points s)) (fig null_fmt)
  in
  {
    attempted = List.length points;
    failed = count_failed points;
    results =
      [
        ("points", float_of_int (List.length points));
        ("sum_mbps", List.fold_left ( +. ) 0. points);
      ];
    broken = [];
  }

(* Table 1 is the slowest part even at quick sizes, so the smoke scale
   leaves it out. *)
let paper_parts scale =
  let quick = scale = Smoke in
  (if quick then [] else [ { pname = "report.tab1"; run = tab1 } ])
  @ List.map
      (fun (pname, fig) -> { pname; run = figure fig })
      [
        ("report.fig4", Report.Figures.fig4 ~quick);
        ("report.fig5", Report.Figures.fig5 ~quick);
        ("report.fig6", Report.Figures.fig6 ~quick);
      ]

(* rpc: open-loop request/response on a 32-node leaf/spine, one fresh
   cluster per offered-rate step. *)

let rpc_gaps_us = [ 400.; 200.; 400. /. 3.; 100. ]
let rpc_requests = function Full -> 1000 | Smoke -> 20

let rpc_step scale gap_us ~seed ~inject =
  let c =
    span "cluster.net_create" (fun () ->
        Net.create_topo ~topo:(Topology.leaf_spine ~racks:4 ~per_rack:8 ~spines:2 ()) ())
  in
  (* The injected fault: the last node loses power 1 ms into the 200 us
     step, so requests to it are never answered. *)
  if inject && gap_us = 200. then
    Sim.post c.Net.sim ~after:(Time.ms 1.) (fun () ->
        Node.crash (Net.node c (Net.size c - 1)));
  let _, slo =
    span "cluster.open_loop" (fun () ->
        Workload.open_loop c ~seed
          ~arrival:(Workload.Poisson { mean_gap = Time.us gap_us })
          ~requests_per_node:(rpc_requests scale) ~req_size:256 ~resp_size:2048
          ~deadline:(Time.ms 1.) ())
  in
  let unanswered = slo.slo_requests - slo.slo_completed in
  {
    attempted = slo.slo_requests;
    failed = unanswered;
    results =
      [
        ("offered_krps", Float.round (float_of_int (Net.size c) *. 1e3 /. gap_us));
        ("p50_us", slo.slo_p50_us);
        ("p99_us", slo.slo_p99_us);
        ("p999_us", slo.slo_p999_us);
        ("goodput_mbps", slo.slo_goodput_mbps);
        ("deadline_misses", float_of_int slo.slo_timeouts);
      ];
    broken =
      (if unanswered > 0 then
         [ Printf.sprintf "%d requests never answered" unanswered ]
       else []);
  }

let rpc_parts scale =
  List.map
    (fun gap ->
      { pname = Printf.sprintf "rpc.gap_%.0fus" gap; run = rpc_step scale gap })
    rpc_gaps_us

(* incast: twelve remote senders stream 64 KB messages into node 0 through
   a one-spine leaf/spine with tail-drop switches and SACK recovery. *)

let incast_messages = function Full -> 600 | Smoke -> 10

let incast scale ~seed ~inject:_ =
  let c =
    span "cluster.net_create" (fun () ->
        Net.create_topo
          ~config:(Report.Figures.congestion_config ~regime:`Tail_drop ~scheme:`Sack)
          ~topo:(Topology.leaf_spine ~racks:4 ~per_rack:4 ~spines:1 ())
          ())
  in
  let s =
    span "cluster.hotspot" (fun () ->
        Workload.hotspot c ~seed ~target:0
          ~senders:(List.init 12 (fun i -> i + 4))
          ~messages_per_node:(incast_messages scale) ~size:65536 ())
  in
  let drops =
    List.fold_left
      (fun a sw -> a + Hw.Switch.ingress_drops sw + Hw.Switch.egress_drops sw)
      0 c.Net.switches
  in
  let retx = ref 0 in
  for i = 0 to Net.size c - 1 do
    retx :=
      !retx + Clic.Clic_module.retransmissions (Clic.Api.kernel (Net.node c i).Node.clic)
  done;
  let undelivered = s.sent - s.delivered in
  {
    attempted = s.sent;
    failed = undelivered;
    results =
      [
        ("goodput_mbps", float_of_int (s.bytes * 8) /. Time.to_s s.elapsed /. 1e6);
        ("elapsed_ms", Time.to_ms s.elapsed);
        ("switch_drops", float_of_int drops);
        ("retransmissions", float_of_int !retx);
      ];
    broken =
      (if undelivered > 0 then
         [ Printf.sprintf "%d messages never delivered" undelivered ]
       else []);
  }

(* check: the checker over six scenarios, then the observability exports
   of one recorded scenario — the toolchain CI runs on every push.  The
   scenarios fix their own seeds, so --seed is unused. *)

let check_scenarios = function
  | Full -> [ "ext1"; "stress"; "congestion"; "fabric"; "incast"; "slo" ]
  | Smoke -> [ "fabric"; "slo" ]

let check_recorded = function Full -> "stress" | Smoke -> "slo"

let check_one name ~seed:_ ~inject:_ =
  let r = Check.run_scenario ~seeds:1 (find_scenario name) in
  let violations = List.length r.violations in
  {
    attempted = 1;
    failed = (if Check.ok r then 0 else 1);
    results = [ ("violations", float_of_int violations) ];
    broken =
      (if Check.ok r then []
       else [ Printf.sprintf "scenario %s: %d violations" name violations ]);
  }

let obs_exports scale ~seed:_ ~inject:_ =
  let rec_, _ =
    span "obs.record" (fun () -> Obs.Recorder.record (find_scenario (check_recorded scale)))
  in
  let timeline = span "obs.timeline" (fun () -> Obs.Timeline.export rec_) in
  let csv =
    span "obs.metrics" (fun () -> Obs.Metrics.to_csv (Obs.Metrics.build rec_))
  in
  let messages = span "obs.attribution" (fun () -> Obs.Attribution.messages rec_) in
  let broken =
    (if messages = [] then [ "attribution found no messages" ] else [])
    @ if csv = "" then [ "metrics export is empty" ] else []
  in
  {
    attempted = 1;
    failed = (if broken = [] then 0 else 1);
    results =
      [
        ("recorded_events", float_of_int (Obs.Recorder.count rec_));
        ("timeline_bytes", float_of_int (String.length timeline));
        ("attributed_messages", float_of_int (List.length messages));
      ];
    broken;
  }

let check_parts scale =
  List.map
    (fun name -> { pname = "check." ^ name; run = check_one name })
    (check_scenarios scale)
  @ [ { pname = "obs.exports"; run = obs_exports scale } ]

let workloads =
  [
    {
      name = "paper";
      size =
        (function
        | Full -> "Table 1 + Figures 4-6, full sizes"
        | Smoke -> "Figures 4-6, quick sizes");
      nodes = 2;
      parts = paper_parts;
      start = None;
      replayed = None;
    };
    {
      name = "rpc";
      size =
        (fun scale ->
          Printf.sprintf
            "32-node leaf/spine, Poisson gaps 400/200/133/100 us, %d req/node \
             per step, 256 B req, 2 KB resp, 1 ms deadline"
            (rpc_requests scale));
      nodes = 32;
      parts = rpc_parts;
      start = None;
      replayed = None;
    };
    {
      name = "incast";
      size =
        (fun scale ->
          Printf.sprintf
            "16-node one-spine leaf/spine, 12 senders x %d x 64 KB, tail-drop + \
             SACK"
            (incast_messages scale));
      nodes = 16;
      parts = (fun scale -> [ { pname = "incast"; run = incast scale } ]);
      start = None;
      replayed = None;
    };
    {
      name = "check";
      size =
        (fun scale ->
          Printf.sprintf "check %s (1 seed), record+export %s"
            (String.concat "," (check_scenarios scale))
            (check_recorded scale));
      nodes = 8;
      parts = check_parts;
      (* The checker replaces any installed probe sink, so [setup] runs the
         first scenario without it. *)
      start =
        Some
          (fun scale ~seed:_ ->
            (find_scenario (List.hd (check_scenarios scale))).run null_fmt);
      (* the scenario that dominates the workload's checker time *)
      replayed = Some (fun scale -> List.hd (check_scenarios scale));
    };
  ]

(* ------------------------------------------------------------------ *)
(* The streaming probe sink of the traced run: bins every event by layer
   without buffering any of them. *)

type bins = {
  mutable now : int;
  mutable ev_engine : int;
  mutable ev_hw : int;
  mutable ev_os : int;
  mutable ev_clic : int;
  mutable ev_objects : int;
  busy : int array;  (* ns per Probe.track, in track_index order *)
  mutable link_frames : int;
  mutable irqs : int;
  mutable switch_drops : int;
  mutable peak_switch_buffer : int;
  mutable pause_frames_tx : int;
  mutable ecn_marks : int;
  mutable sched_runs : int;
  mutable kmem_high_water : int;
  mutable poll_passes : int;
  mutable retx : int;
  mutable acks_tx : int;
  mutable rto_armed : int;
  mutable sack_acks : int;
  mutable chan_deliveries : int;
  mutable msg_sent : int;
  mutable msg_recv : int;
  inflight : (int * int * int, int) Hashtbl.t;  (* (src, epoch, msg_id) -> sent at *)
  mutable latencies : int list;  (* ns, send syscall to copy-out *)
}

let fresh_bins () =
  {
    now = 0; ev_engine = 0; ev_hw = 0; ev_os = 0; ev_clic = 0; ev_objects = 0;
    busy = Array.make 8 0; link_frames = 0; irqs = 0; switch_drops = 0;
    peak_switch_buffer = 0; pause_frames_tx = 0; ecn_marks = 0; sched_runs = 0;
    kmem_high_water = 0; poll_passes = 0; retx = 0; acks_tx = 0; rto_armed = 0;
    sack_acks = 0; chan_deliveries = 0; msg_sent = 0; msg_recv = 0;
    inflight = Hashtbl.create 1024; latencies = [];
  }

let track_index : Probe.track -> int = function
  | Process -> 0
  | Isr -> 1
  | Bh_track -> 2
  | Module -> 3
  | Dma -> 4
  | Link -> 5
  | Pause_t -> 6
  | Busy -> 7

let bin b (ev : Probe.event) =
  match ev with
  | Sim_start ->
      b.ev_engine <- b.ev_engine + 1;
      b.now <- 0;
      Hashtbl.reset b.inflight
  | Clock { now } ->
      b.ev_engine <- b.ev_engine + 1;
      b.now <- now
  | Span { track; start; finish; _ } ->
      let i = track_index track in
      b.busy.(i) <- b.busy.(i) + (finish - start);
      (match track with
      | Module -> b.ev_clic <- b.ev_clic + 1
      | Process | Isr | Bh_track | Busy -> b.ev_os <- b.ev_os + 1
      | Link ->
          b.link_frames <- b.link_frames + 1;
          b.ev_hw <- b.ev_hw + 1
      | Dma | Pause_t -> b.ev_hw <- b.ev_hw + 1)
  | Irq _ ->
      b.irqs <- b.irqs + 1;
      b.ev_hw <- b.ev_hw + 1
  | Switch_drop _ ->
      b.switch_drops <- b.switch_drops + 1;
      b.ev_hw <- b.ev_hw + 1
  | Switch_buffer { occupied; _ } ->
      b.peak_switch_buffer <- max b.peak_switch_buffer occupied;
      b.ev_hw <- b.ev_hw + 1
  | Pause_frame { sent; _ } ->
      if sent then b.pause_frames_tx <- b.pause_frames_tx + 1;
      b.ev_hw <- b.ev_hw + 1
  | Ecn_mark _ ->
      b.ecn_marks <- b.ecn_marks + 1;
      b.ev_hw <- b.ev_hw + 1
  | Queue_depth _ | Tx_wire _ | Pause_state _ | Gray_fault _ ->
      b.ev_hw <- b.ev_hw + 1
  | Sched_run _ ->
      b.sched_runs <- b.sched_runs + 1;
      b.ev_os <- b.ev_os + 1
  | Pool_alloc { used; _ } ->
      b.kmem_high_water <- max b.kmem_high_water used;
      b.ev_os <- b.ev_os + 1
  | Poll_pass _ ->
      b.poll_passes <- b.poll_passes + 1;
      b.ev_os <- b.ev_os + 1
  | Sched_block _ | Pool_free _ | Rx_poll_mode _ | Pool_pressure _ ->
      b.ev_os <- b.ev_os + 1
  | Chan_retx _ ->
      b.retx <- b.retx + 1;
      b.ev_clic <- b.ev_clic + 1
  | Ack_tx _ ->
      b.acks_tx <- b.acks_tx + 1;
      b.ev_clic <- b.ev_clic + 1
  | Rto_armed _ ->
      b.rto_armed <- b.rto_armed + 1;
      b.ev_clic <- b.ev_clic + 1
  | Sack_tx _ ->
      b.sack_acks <- b.sack_acks + 1;
      b.ev_clic <- b.ev_clic + 1
  | Chan_deliver _ ->
      b.chan_deliveries <- b.chan_deliveries + 1;
      b.ev_clic <- b.ev_clic + 1
  | Msg_send { node; msg_id; epoch; _ } ->
      b.msg_sent <- b.msg_sent + 1;
      Hashtbl.replace b.inflight (node, epoch, msg_id) b.now;
      b.ev_clic <- b.ev_clic + 1
  | Msg_recv { src; msg_id; epoch; _ } ->
      b.msg_recv <- b.msg_recv + 1;
      (match Hashtbl.find_opt b.inflight (src, epoch, msg_id) with
      | Some t0 ->
          Hashtbl.remove b.inflight (src, epoch, msg_id);
          b.latencies <- (b.now - t0) :: b.latencies
      | None -> ());
      b.ev_clic <- b.ev_clic + 1
  | Ack_rx _ | Snd_una _ | Window _ | Chan_dead _ | Msg_deliver _ | Sack_rx _ ->
      b.ev_clic <- b.ev_clic + 1
  | Obj_alloc _ | Obj_transfer _ | Obj_free _ | Ivar_fill _ | Sem_create _
  | Sem_acquire _ | Sem_release _ ->
      b.ev_objects <- b.ev_objects + 1

let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    float_of_int sorted.(min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))
    /. 1e3

let bins_metrics b =
  let lat = Array.of_list b.latencies in
  Array.sort compare lat;
  let busy_ms t = float_of_int b.busy.(track_index t) /. 1e6 in
  let f = float_of_int in
  [
    ("probe.events.engine", f b.ev_engine);
    ("probe.events.hw", f b.ev_hw);
    ("probe.events.os", f b.ev_os);
    ("probe.events.clic", f b.ev_clic);
    ("probe.events.objects", f b.ev_objects);
    ("sim.busy_ms.process", busy_ms Process);
    ("sim.busy_ms.isr", busy_ms Isr);
    ("sim.busy_ms.bh", busy_ms Bh_track);
    ("sim.busy_ms.module", busy_ms Module);
    ("sim.busy_ms.dma", busy_ms Dma);
    ("sim.busy_ms.link", busy_ms Link);
    ("sim.msg_p50_us", percentile_us lat 50.);
    ("sim.msg_p99_us", percentile_us lat 99.);
    ("hw.nic.interrupts", f b.irqs);
    ("hw.nic.tx_paused_us", float_of_int b.busy.(track_index Pause_t) /. 1e3);
    ("hw.link.frames", f b.link_frames);
    ("hw.switch.drops", f b.switch_drops);
    ("hw.switch.peak_buffer_kb", f b.peak_switch_buffer /. 1024.);
    ("hw.pause_frames_tx", f b.pause_frames_tx);
    ("hw.switch.ecn_marks", f b.ecn_marks);
    ("os.sched_switches", f b.sched_runs);
    ("os.kmem_high_water_kb", f b.kmem_high_water /. 1024.);
    ("os.poll_passes", f b.poll_passes);
    ("clic.retransmissions", f b.retx);
    ("clic.acks_tx", f b.acks_tx);
    ("clic.rto_armed", f b.rto_armed);
    ("clic.sack_acks", f b.sack_acks);
    ("clic.segments_delivered", f b.chan_deliveries);
    ( "clic.useful_segment_ratio",
      if b.chan_deliveries + b.retx = 0 then 0.
      else f b.chan_deliveries /. f (b.chan_deliveries + b.retx) );
    ("cluster.messages_sent", f b.msg_sent);
    ("cluster.messages_received", f b.msg_recv);
  ]

(* ------------------------------------------------------------------ *)
(* Measurement *)

type measured = {
  timed : (string * float * outcome) list;  (* part, wall seconds, outcome *)
  wall_s : float;
  events : int;
  minor_words : float;
  alloc_bytes : float;
}

let measure parts ~seed ~inject =
  Gc.full_major ();
  let e0 = Sim.global_events_executed () in
  let m0 = Gc.minor_words () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let timed =
    List.map
      (fun p ->
        let t = Unix.gettimeofday () in
        let o = span p.pname (fun () -> p.run ~seed ~inject) in
        (p.pname, Unix.gettimeofday () -. t, o))
      parts
  in
  {
    timed;
    wall_s = Unix.gettimeofday () -. t0;
    events = Sim.global_events_executed () - e0;
    minor_words = Gc.minor_words () -. m0;
    alloc_bytes = Gc.allocated_bytes () -. a0;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let measured_json w ~seed m =
  [
    ("workload", Str w.name);
    ("seed", Int seed);
    ("wall_s", Num m.wall_s);
    ("events", Int m.events);
    ("minor_words", Num m.minor_words);
    ("alloc_mb", Num (m.alloc_bytes /. 1048576.));
    ("peak_heap_mb", Num (peak_heap_mb ()));
    ( "parts",
      Arr
        (List.map
           (fun (name, wall, o) ->
             Obj
               [
                 ("name", Str name);
                 ("wall_s", Num wall);
                 ("attempted", Int o.attempted);
                 ("failed", Int o.failed);
                 ("broken", Arr (List.map (fun s -> Str s) o.broken));
                 ("results", nums o.results);
               ])
           m.timed) );
  ]

(* Bare-engine cost per event at the workload's node count: the ceiling
   on what any model-layer speed-up could save. *)
let bare_ns_per_event scale nodes =
  let events = match scale with Full -> 2_000_000 | Smoke -> 100_000 in
  let n, wall =
    Bench_engine.time_min ~runs:3 (Bench_engine.mesh ~nodes ~rounds:(events / nodes))
  in
  wall *. 1e9 /. float_of_int n

(* Replays a recorded stream through each of the checker's passes as one
   batch: a clock around every call would cost more than the passes. *)
let replay_passes (r : Obs.Recorder.t) =
  let evs = Obs.Recorder.events r in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let lifecycle_s, lifecycle_found =
    timed (fun () ->
        let l = Check.Lifecycle.create ~leak_check:true () in
        List.iter (fun (s : Obs.Recorder.stamped) -> Check.Lifecycle.on_event l s.ev) evs;
        List.length (Check.Lifecycle.finish l))
  in
  let invariants_s, invariant_found =
    timed (fun () ->
        let ms = Check.Invariants.create_all () in
        List.fold_left
          (fun n (s : Obs.Recorder.stamped) ->
            List.fold_left
              (fun n (m : Check.Invariants.monitor) ->
                match m.on_event ~now:s.at s.ev with Some _ -> n + 1 | None -> n)
              n ms)
          0 evs)
  in
  let determinism_s, _ =
    timed (fun () ->
        let d = Check.Determinism.create () in
        List.iter (fun (s : Obs.Recorder.stamped) -> Check.Determinism.on_event d s.ev) evs;
        Check.Determinism.result d)
  in
  let n = Obs.Recorder.count r in
  [
    ("check.probe_events", float_of_int n);
    ("check.lifecycle_s", lifecycle_s);
    ("check.invariants_s", invariants_s);
    ("check.determinism_s", determinism_s);
    ("check.lifecycle_ns_per_event", lifecycle_s *. 1e9 /. float_of_int (max 1 n));
    ("check.violations", float_of_int (lifecycle_found + invariant_found));
  ]

let iter w scale ~seed ~inject ~part =
  let parts = w.parts scale in
  let parts =
    match part with
    | None -> parts
    | Some i when i >= 0 && i < List.length parts -> [ List.nth parts i ]
    | Some i ->
        Printf.eprintf "%s has no part %d\n" w.name i;
        exit 2
  in
  let m = measure parts ~seed ~inject in
  print_json
    (Obj
       (measured_json w ~seed m
       @
       if !tracing_spans then
         [
           ( "layers",
             nums
               [
                 ("obs.record_s", span_seconds "obs.record");
                 ("obs.timeline_s", span_seconds "obs.timeline");
                 ("obs.metrics_s", span_seconds "obs.metrics");
                 ("obs.attribution_s", span_seconds "obs.attribution");
               ] );
           ("spans", spans_json ());
         ]
       else []))

let traced w scale ~seed =
  let b = fresh_bins () in
  Probe.install (bin b);
  let m =
    Fun.protect ~finally:Probe.uninstall (fun () ->
        measure (w.parts scale) ~seed ~inject:false)
  in
  let replay =
    match w.replayed with
    | None ->
        List.map
          (fun k -> (k, 0.))
          [ "check.probe_events"; "check.lifecycle_s"; "check.invariants_s";
            "check.determinism_s"; "check.lifecycle_ns_per_event";
            "check.violations" ]
    | Some scenario ->
        let r, _ =
          span "check.record" (fun () ->
              Obs.Recorder.record (find_scenario (scenario scale)))
        in
        (* The checker displaced this run's sink, so the recording stands
           in for its probe stream. *)
        List.iter (fun (s : Obs.Recorder.stamped) -> bin b s.ev) (Obs.Recorder.events r);
        span "check.replay" (fun () -> replay_passes r)
  in
  let bare = span "engine.bare_mesh" (fun () -> bare_ns_per_event scale w.nodes) in
  print_json
    (Obj
       (measured_json w ~seed m
       @ [
           ("bare_ns_per_event", Num bare);
           ("layers", nums (bins_metrics b @ replay));
           ("spans", spans_json ());
         ]))

(* Exits at the first simulated event: run.py times process start to
   here. *)
let setup w scale ~seed =
  Probe.install (function Probe.Clock _ -> exit 0 | _ -> ());
  (match w.start with
  | Some start -> start scale ~seed
  | None -> ignore ((List.hd (w.parts scale)).run ~seed ~inject:false));
  exit 0

let info scale =
  print_json
    (Obj
       [
         ("ocaml", Str Sys.ocaml_version);
         ( "workloads",
           Obj
             (List.map
                (fun w ->
                  ( w.name,
                    Obj
                      [
                        ("size", Str (w.size scale));
                        ("nodes", Int w.nodes);
                        ( "parts",
                          Arr (List.map (fun p -> Str p.pname) (w.parts scale)) );
                      ] ))
                workloads) );
       ])

let usage () =
  prerr_endline
    "usage: suite.exe info [--smoke]\n\
    \       suite.exe setup WORKLOAD SEED [--smoke]\n\
    \       suite.exe iter WORKLOAD SEED [--smoke] [--part N] [--spans] \
     [--inject strand]\n\
    \       suite.exe traced WORKLOAD SEED [--smoke]";
  exit 2

let () =
  let scale = ref Full and inject = ref false and part = ref None in
  let rec parse = function
    | "--smoke" :: rest ->
        scale := Smoke;
        parse rest
    | "--spans" :: rest ->
        tracing_spans := true;
        parse rest
    | "--inject" :: "strand" :: rest ->
        inject := true;
        parse rest
    | "--part" :: n :: rest when int_of_string_opt n <> None ->
        part := int_of_string_opt n;
        parse rest
    | a :: _ when String.starts_with ~prefix:"--" a -> usage ()
    | a :: rest -> a :: parse rest
    | [] -> []
  in
  let positional = parse (List.tl (Array.to_list Sys.argv)) in
  let scale = !scale in
  match positional with
  | [ "info" ] -> info scale
  | [ mode; name; seed ] -> (
      let w =
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            exit 2
      in
      let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
      match mode with
      | "setup" -> setup w scale ~seed
      | "iter" -> iter w scale ~seed ~inject:!inject ~part:!part
      | "traced" ->
          tracing_spans := true;
          traced w scale ~seed
      | _ -> usage ())
  | _ -> usage ()
