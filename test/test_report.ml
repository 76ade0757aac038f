(* Tests for the reporting layer: rendering, pair registry, and the quick
   figure drivers' structural invariants. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let render_to_string f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_table_alignment () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.table fmt ~header:[ "name"; "value" ]
          ~rows:[ [ "alpha"; "1" ]; [ "b"; "22222" ] ]
          ())
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
      check_bool "rule under header" true
        (String.length rule >= String.length "name  value");
      check_bool "header first" true
        (String.length header > 0 && String.sub header 0 4 = "name")
  | _ -> Alcotest.fail "too few lines");
  (* all data rows start at aligned columns *)
  check_bool "alpha row present" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha")
       lines)

let test_series_table_merges_x_values () =
  let s1 = Stats.Series.create ~name:"a" in
  let s2 = Stats.Series.create ~name:"b" in
  Stats.Series.add s1 ~x:1. ~y:10.;
  Stats.Series.add s2 ~x:2. ~y:20.;
  let out =
    render_to_string (fun fmt ->
        Report.Render.series_table fmt ~title:"t" ~x_label:"x"
          ~series:[ s1; s2 ])
  in
  (* both x values appear; missing cells are "-" *)
  check_bool "x=1 row" true
    (List.exists
       (fun l -> String.length l > 0 && l.[0] = '1')
       (String.split_on_char '\n' out));
  check_bool "dash for missing" true
    (String.length out > 0
    && String.index_opt out '-' <> None)

let test_bar_proportions () =
  check_str "full" "####" (Report.Render.bar 10. ~max:10. ~width:4);
  check_str "half" "##" (Report.Render.bar 5. ~max:10. ~width:4);
  check_str "zero" "" (Report.Render.bar 0. ~max:10. ~width:4);
  check_str "degenerate max" "" (Report.Render.bar 5. ~max:0. ~width:4)

let test_timeline_shape () =
  let sim = Sim.create () in
  let spans =
    [
      { Trace.label = "first"; start = 0; finish = Time.us 10. };
      { Trace.label = "second"; start = Time.us 10.; finish = Time.us 20. };
    ]
  in
  ignore sim;
  let out =
    render_to_string (fun fmt -> Report.Render.timeline fmt ~width:20 spans)
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check_int "two bars + axis" 3 (List.length lines);
  check_bool "bars drawn" true (String.contains out '#')

let test_pairs_registry () =
  List.iter
    (fun name ->
      let c = Cluster.Net.create ~n:2 () in
      let pair = Report.Pairs.of_name name c ~a:0 ~b:1 in
      check_bool name true (String.length pair.Cluster.Measure.label > 0))
    [ "clic"; "tcp"; "mpi-clic"; "mpi-tcp"; "pvm" ];
  Alcotest.check_raises "unknown stack"
    (Invalid_argument "Pairs.of_name: unknown \"bogus\"") (fun () ->
      let c = Cluster.Net.create ~n:2 () in
      ignore (Report.Pairs.of_name "bogus" c ~a:0 ~b:1))

let test_paper_reference_values () =
  check_bool "latency" true (Report.Paper.zero_byte_latency_us = 36.);
  check_bool "asymptote order" true
    (Report.Paper.clic_asymptote_mtu9000_mbps
   > Report.Paper.clic_asymptote_mtu1500_mbps);
  check_bool "half-bandwidth order" true
    (Report.Paper.half_bandwidth_size_tcp
   > Report.Paper.half_bandwidth_size_clic)

(* The half-bandwidth point is read off measured (size, bandwidth)
   points: half of the last point's bandwidth, found between the two
   points that straddle it in log-size space. *)
let test_half_bandwidth_size () =
  let half = Report.Figures.half_bandwidth_size in
  let close = Alcotest.(check (float 1e-6)) in
  close "geometric midpoint" 8000.
    (half [ (1000., 100.); (4000., 300.); (16000., 500.); (64000., 800.) ]);
  close "crossing exactly at a point" 4000.
    (half [ (1000., 100.); (4000., 400.); (16000., 800.) ]);
  close "first point already at half" 256.
    (half [ (256., 600.); (1024., 700.); (4096., 1000.) ]);
  close "single point" 4096. (half [ (4096., 900.) ])

let test_fig5_quick_invariants () =
  match Report.Figures.fig5 ~quick:true null_fmt with
  | [ clic9000; clic1500; tcp9000; tcp1500 ] ->
      let top s = Stats.Series.max_y s in
      check_bool "clic 9000 highest" true
        (top clic9000 > top tcp9000 && top clic9000 > top tcp1500);
      check_bool "clic beats tcp at same mtu" true
        (top clic1500 > top tcp1500);
      (* every curve is monotone-ish: max at the largest size *)
      List.iter
        (fun s ->
          match List.rev (Stats.Series.points s) with
          | (_, last) :: _ ->
              check_bool "asymptote at large sizes" true
                (last >= 0.8 *. top s)
          | [] -> Alcotest.fail "empty series")
        [ clic9000; clic1500; tcp9000; tcp1500 ]
  | _ -> Alcotest.fail "unexpected fig5 shape"

(* The contract experiments: each registry contract must hold on the
   quick run, and must flag a doctored copy of that run's rows (a seeded
   true positive, so a contract that silently stopped checking fails
   here). *)

let holds what vs =
  Alcotest.(check (list string))
    (what ^ " contract holds on the quick run")
    [] (List.map Check.Violation.to_string vs)

let flags what rule vs =
  check_bool
    (Printf.sprintf "%s flagged as %s" what rule)
    true
    (List.exists (fun v -> v.Check.Violation.rule = rule) vs)

let test_incast_acceptance () =
  let open Report.Figures in
  let rows, gather = incast ~quick:true null_fmt in
  let contract = Check.Scenario.incast_contract in
  holds "incast" (contract rows gather);
  let doctor regime f =
    List.map
      (fun r ->
        if r.in_regime = regime then { r with in_run = f r.in_run } else r)
      rows
  in
  let tally f r = { r with tally = f r.tally } in
  flags "PAUSE row with one egress drop" "pause-loss"
    (contract
       (doctor `Pause (tally (fun t -> { t with egress_drops = 1 })))
       gather);
  flags "tail-drop row without ingress drops" "no-collapse"
    (contract
       (doctor `Tail_drop (tally (fun t -> { t with ingress_drops = 0 })))
       gather);
  flags "row with a lost message" "lost-messages"
    (contract
       (doctor `Tail_drop (fun r -> { r with delivered = r.sent - 1 }))
       gather);
  flags "missing PAUSE row" "missing-row"
    (contract (List.filter (fun r -> r.in_regime = `Tail_drop) rows) gather);
  flags "PAUSE gather with a drop" "pause-loss"
    (contract rows
       (List.map
          (fun g ->
            if g.ga_regime = `Pause then
              { g with ga_tally = { g.ga_tally with ingress_drops = 1 } }
            else g)
          gather))

let test_fabric_acceptance () =
  let open Report.Figures in
  let rows, reroute = fabric ~quick:true null_fmt in
  let contract = Check.Scenario.fabric_contract in
  holds "fabric" (contract rows reroute);
  let doctor regime f =
    List.map (fun r -> if r.fb_regime = regime then f r else r) rows
  in
  let drops n r =
    let t = r.fb_run.tally in
    let tally = { t with ingress_drops = n; egress_drops = 0 } in
    { r with fb_run = { r.fb_run with tally } }
  in
  flags "PAUSE row with one drop" "pause-loss"
    (contract (doctor `Pause (drops 1)) reroute);
  flags "PAUSE row without spine XOFF" "no-congestion-tree"
    (contract (doctor `Pause (fun r -> { r with fb_spine_pause = 0 })) reroute);
  flags "tail-drop row without drops" "no-collapse"
    (contract (doctor `Tail_drop (drops 0)) reroute);
  flags "survivor carrying less than the dead spine" "reroute-idle"
    (contract rows { reroute with rr_spine1_tx = reroute.rr_spine0_tx })

let test_congestion_acceptance () =
  let open Report.Figures in
  let cells, bursty = congestion_matrix ~quick:true null_fmt in
  let contract = Check.Scenario.congestion_contract in
  holds "congestion" (contract cells bursty);
  let doctor_cells regime f =
    List.map
      (fun c ->
        if c.cg_regime = regime then
          { c with cg_run = { c.cg_run with tally = f c.cg_run.tally } }
        else c)
      cells
  in
  flags "ECN cell with zero CE marks" "ecn-idle"
    (contract (doctor_cells `Ecn (fun t -> { t with ecn_marks = 0 })) bursty);
  flags "PAUSE cell with one drop" "switch-loss"
    (contract
       (doctor_cells `Pause (fun t -> { t with egress_drops = 1 }))
       bursty);
  flags "tail-drop matrix without a drop" "no-collapse"
    (contract
       (doctor_cells `Tail_drop (fun t ->
            { t with ingress_drops = 0; egress_drops = 0 }))
       bursty);
  flags "short matrix" "missing-row" (contract (List.tl cells) bursty);
  let gbn = List.find (fun r -> r.bu_scheme = `Go_back_n) bursty in
  flags "SACK retransmitting as many bytes as go-back-N" "sack-no-saving"
    (contract cells
       (List.map
          (fun r ->
            if r.bu_scheme = `Sack then
              let tally =
                { r.bu_run.tally with retx_bytes = gbn.bu_run.tally.retx_bytes }
              in
              { r with bu_run = { r.bu_run with tally } }
            else r)
          bursty))

let suite =
  [
    ("table alignment", `Quick, test_table_alignment);
    ("series table", `Quick, test_series_table_merges_x_values);
    ("bar proportions", `Quick, test_bar_proportions);
    ("timeline shape", `Quick, test_timeline_shape);
    ("pairs registry", `Quick, test_pairs_registry);
    ("paper reference", `Quick, test_paper_reference_values);
    ("half-bandwidth size", `Quick, test_half_bandwidth_size);
    ("fig5 invariants", `Slow, test_fig5_quick_invariants);
    ("incast acceptance", `Slow, test_incast_acceptance);
    ("fabric acceptance", `Slow, test_fabric_acceptance);
    ("congestion acceptance", `Slow, test_congestion_acceptance);
  ]
