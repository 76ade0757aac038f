(* The experiment registry: every experiment the repository renders,
   declared once, with the exit-status contract it must meet.  [report]
   renders the experiment at full or quick size and returns the contract
   violations; [run] is the checker's trace-pinned run, by default the
   quick-size report with its verdict discarded.  The checker cares about
   behaviour, not curve resolution, so quick sizes are enough for it.

   Contracts are pure functions over the typed rows a figure returns, so
   tests can feed them doctored rows. *)

module F = Report.Figures
module T = Cluster.Tally

type t = {
  name : string;
  descr : string;
  report : quick:bool -> Format.formatter -> Violation.t list;
  run : Format.formatter -> unit;
}

(* ------------------------------------------------------------------ *)
(* Contracts *)

(* [[]] when [holds], else the one violation of [rule]. *)
let require ~pass holds rule detail =
  if holds then [] else [ Violation.make ~pass ~rule ~time_ns:0 detail ]

let lost ~pass name ({ sent; delivered; _ } : F.run) =
  require ~pass (delivered = sent) "lost-messages"
    (Printf.sprintf "%s: %d of %d messages lost" name (sent - delivered) sent)

(* One violation per [wanted] key no row carries. *)
let missing ~pass ~what key_of name_of wanted rows =
  List.concat_map
    (fun k ->
      require ~pass
        (List.exists (fun r -> key_of r = k) rows)
        "missing-row"
        (Printf.sprintf "no %s row for %s" what (name_of k)))
    wanted

let regimes : F.flow_control list = [ `Tail_drop; `Pause ]

(* Under the same N->1 stampede the tail-drop fabric must visibly
   collapse (frames lost at both the bounded uplinks and the egress FIFOs,
   repaired by retransmission) while the 802.3x fabric loses nothing at
   the switch and really signals; both deliver everything, and the MPI
   gather shows the same contrast on the loss side.  (The quick gather is
   light enough that its PAUSE arm may finish without any XOFF, so only
   the zero-loss half is required there.) *)
let incast_contract rows gather =
  let pass = "incast" in
  let req = require ~pass in
  let row ({ in_regime; in_run = r } : F.incast_row) =
    let name = F.flow_control_name in_regime in
    let t = r.tally in
    lost ~pass name r
    @
    match in_regime with
    | `Tail_drop ->
        req (r.sent >= 40) "trivial-workload"
          (Printf.sprintf "%s: only %d messages sent" name r.sent)
        @ req (t.ingress_drops > 0) "no-collapse"
            (name ^ ": no drops at the bounded uplinks")
        @ req (t.egress_drops > 0) "no-collapse"
            (name ^ ": no drops at the egress FIFOs")
        @ req (t.retransmissions > 0) "no-collapse"
            (name ^ ": no retransmissions")
    | `Pause ->
        req (T.switch_drops t = 0) "pause-loss"
          (Printf.sprintf "%s: PAUSE fabric dropped %d frame(s)" name
             (T.switch_drops t))
        @ req (t.switch_pause_tx > 0) "pause-idle"
            (name ^ ": switch generated no PAUSE frames")
        @ req (t.tx_paused_ns > 0) "pause-idle"
            (name ^ ": sender NICs never paused")
        @ req (t.peak_buffer > 0) "pause-idle"
            (name ^ ": shared buffer never used")
  in
  let gather_row (g : F.gather_row) =
    let name = "gather " ^ F.flow_control_name g.ga_regime in
    let drops = T.switch_drops g.ga_tally in
    match g.ga_regime with
    | `Tail_drop -> req (drops > 0) "no-collapse" (name ^ ": no switch drops")
    | `Pause ->
        req (drops = 0) "pause-loss"
          (Printf.sprintf "%s: PAUSE fabric dropped %d frame(s)" name drops)
  in
  missing ~pass ~what:"incast"
    (fun (r : F.incast_row) -> r.in_regime)
    F.flow_control_name regimes rows
  @ missing ~pass ~what:"gather"
      (fun (g : F.gather_row) -> g.ga_regime)
      F.flow_control_name regimes gather
  @ List.concat_map row rows
  @ List.concat_map gather_row gather

(* The cross-rack stampede through an oversubscribed spine must collapse
   under tail-drop yet stay lossless under 802.3x, with the congestion
   tree forming hop by hop (spine XOFFs ToRs, ToRs XOFF senders); when a
   spine dies under ECMP load, the survivor must carry the rest. *)
let fabric_contract rows (rr : F.reroute_row) =
  let pass = "fabric" in
  let req = require ~pass in
  let row (r : F.fabric_row) =
    let name = F.flow_control_name r.fb_regime in
    let t = r.fb_run.tally in
    let drops = T.switch_drops t in
    lost ~pass name r.fb_run
    @
    match r.fb_regime with
    | `Tail_drop ->
        req (r.fb_run.sent >= 40) "trivial-workload"
          (Printf.sprintf "%s: only %d messages sent" name r.fb_run.sent)
        @ req (drops > 0) "no-collapse"
            (name ^ ": no switch drops, the oversubscribed uplink did not \
                     collapse")
        @ req (t.retransmissions > 0) "no-collapse"
            (name ^ ": no retransmissions")
    | `Pause ->
        req (drops = 0) "pause-loss"
          (Printf.sprintf "%s: PAUSE fabric dropped %d frame(s)" name drops)
        @ req (r.fb_spine_pause > 0) "no-congestion-tree"
            (name ^ ": spine generated no XOFF")
        @ req (r.fb_tor_pause > 0) "no-congestion-tree"
            (name ^ ": ToRs generated no XOFF")
        @ req (t.tx_paused_ns > 0) "pause-idle"
            (name ^ ": sender NICs never paused")
        @ req (t.peak_buffer > 0) "pause-idle"
            (name ^ ": shared buffers never used")
  in
  missing ~pass ~what:"fabric"
    (fun (r : F.fabric_row) -> r.fb_regime)
    F.flow_control_name regimes rows
  @ List.concat_map row rows
  @ lost ~pass "reroute" rr.rr_run
  @ req (rr.rr_spine0_tx > 0) "reroute-idle"
      "reroute: no traffic crossed the doomed spine"
  @ req
      (rr.rr_spine1_tx > rr.rr_spine0_tx)
      "reroute-idle"
      (Printf.sprintf
         "reroute: the surviving spine carried %d frames, not more than the \
          dead spine's %d"
         rr.rr_spine1_tx rr.rr_spine0_tx)

(* Every cell of the regime matrix delivers everything; ECN cells stay
   switch-lossless and PAUSE-free while really marking and echoing CE;
   only ECN cells mark; the tail-drop baseline collapses somewhere; and
   under identical bursty weather SACK retransmits strictly fewer bytes
   than go-back-N, with the savings accounted. *)
let congestion_contract cells bursty =
  let pass = "congestion" in
  let req = require ~pass in
  let cell (c : F.congestion_cell) =
    let name =
      Printf.sprintf "%s/%s/%s" (F.regime_name c.cg_regime)
        (F.topo_name c.cg_topo) (F.scheme_name c.cg_scheme)
    in
    let t = c.cg_run.tally in
    let marks_none () =
      req (t.ecn_marks = 0) "stray-ce"
        (Printf.sprintf "%s: %d CE mark(s) without ECN" name t.ecn_marks)
    in
    let lossless what =
      req (T.switch_drops t = 0) "switch-loss"
        (Printf.sprintf "%s: %s fabric dropped %d frame(s)" name what
           (T.switch_drops t))
    in
    lost ~pass name c.cg_run
    @
    match c.cg_regime with
    | `Ecn ->
        lossless "ECN"
        @ req (t.switch_pause_tx = 0) "ecn-pause"
            (Printf.sprintf "%s: ECN fabric emitted %d PAUSE frame(s)" name
               t.switch_pause_tx)
        @ req (t.ecn_marks > 0) "ecn-idle"
            (name ^ ": ECN fabric never CE-marked a frame")
        @ req (t.ce_echoes > 0) "ecn-idle"
            (name ^ ": DCTCP senders never saw a CE echo")
    | `Pause -> lossless "PAUSE" @ marks_none ()
    | `Tail_drop -> marks_none ()
  in
  let scheme s =
    List.find_opt (fun (r : F.bursty_row) -> r.bu_scheme = s) bursty
  in
  let bursty_checks =
    match (scheme `Go_back_n, scheme `Sack) with
    | Some { bu_run = { tally = gbn; _ }; _ },
      Some { bu_run = { tally = sack; _ }; _ } ->
        req (gbn.timeouts > 0) "bursty-idle"
          "bursty: the weather forced no go-back-N timeouts"
        @ req
            (sack.retx_bytes < gbn.retx_bytes)
            "sack-no-saving"
            (Printf.sprintf
               "bursty: SACK retransmitted %d bytes, not fewer than \
                go-back-N's %d"
               sack.retx_bytes gbn.retx_bytes)
        @ req (sack.sacked_segments > 0) "sack-idle"
            "bursty: SACK run never recorded a SACKed segment"
        @ req (sack.retx_bytes_saved > 0) "sack-idle"
            "bursty: SACK run saved no retransmit bytes"
        @ req (gbn.sacked_segments = 0) "gbn-sacked"
            (Printf.sprintf "bursty: go-back-N run SACKed %d segment(s)"
               gbn.sacked_segments)
    | _ -> []
  in
  req (List.length cells = 12) "missing-row"
    (Printf.sprintf "matrix has %d cells, not 12" (List.length cells))
  @ List.concat_map cell cells
  @ req
      (List.exists
         (fun (c : F.congestion_cell) ->
           c.cg_regime = `Tail_drop && T.switch_drops c.cg_run.tally > 0)
         cells)
      "no-collapse" "tail-drop: no cell lost a frame at the switch"
  @ missing ~pass ~what:"bursty"
      (fun (r : F.bursty_row) -> r.bu_scheme)
      F.scheme_name [ `Go_back_n; `Sack ] bursty
  @ bursty_checks

(* CLIC answers every request in every condition, the fail-slow window
   visibly bleeds its p999 tail, and the canonical degradation verdict
   holds. *)
let slo_contract rows (verdict : Slo.verdict) =
  let pass = "slo" in
  let req = require ~pass in
  let clic = List.filter (fun (r : F.slo_row) -> r.sl_system = `Clic) rows in
  let row (r : F.slo_row) =
    let name = "clic/" ^ F.condition_name r.sl_condition in
    req (r.sl_completed = r.sl_requests) "unanswered"
      (Printf.sprintf "%s: %d of %d requests unanswered" name
         (r.sl_requests - r.sl_completed) r.sl_requests)
    @ req (r.sl_stranded = 0) "stranded"
        (Printf.sprintf "%s: %d request(s) stranded at drain" name
           r.sl_stranded)
  in
  let condition c =
    List.find_opt (fun (r : F.slo_row) -> r.sl_condition = c) clic
  in
  let bleed =
    match (condition `Healthy, condition `Fail_slow) with
    | Some h, Some d ->
        req (d.sl_p999_us > h.sl_p999_us) "no-bleed"
          (Printf.sprintf
             "panel: the fail-slow window left no mark on the p999 tail \
              (%.1f us degraded vs %.1f us healthy)"
             d.sl_p999_us h.sl_p999_us)
    | _ -> []
  in
  missing ~pass ~what:"clic"
    (fun (r : F.slo_row) -> r.sl_condition)
    F.condition_name [ `Healthy; `Fail_slow ] clic
  @ List.concat_map row clic @ bleed @ verdict.v_violations

(* ------------------------------------------------------------------ *)
(* The registry *)

let sc ?run name descr report =
  let run =
    match run with
    | Some run -> run
    | None -> fun fmt -> ignore (report ~quick:true fmt)
  in
  { name; descr; report; run }

(* Reports for experiments without a contract: one with a quick size, one
   fixed-size. *)
let sized f ~quick fmt : Violation.t list =
  ignore (f ?quick:(Some quick) fmt);
  []

let fixed f ~quick:_ fmt : Violation.t list =
  ignore (f fmt);
  []

let all : t list =
  [
    sc "fig4" "CLIC bandwidth: MTU x 0/1-copy" (sized F.fig4);
    sc "fig5" "CLIC vs TCP/IP bandwidth" (sized F.fig5);
    sc "fig6" "CLIC, MPI-CLIC, MPI, PVM bandwidth" (sized F.fig6);
    sc "fig7" "1400B packet stage timing" (fixed F.fig7);
    sc "tab1" "headline scalars, paper vs measured" (sized F.tab1);
    sc "fig1" "user-to-NIC data path ablation" (sized F.fig1);
    sc "sec2" "interrupt coalescing under saturated streams" (fixed F.sec2);
    sc "sec3" "CLIC vs GAMMA vs VIA design points" (fixed F.sec3);
    sc "ext1" "NIC-side fragmentation" (fixed F.ext1);
    sc "ext2" "channel bonding" (fixed F.ext2);
    sc "ext3" "64KB broadcast to 8 nodes" (fixed (fun fmt -> F.ext3 fmt));
    sc "ext4" "latency under competing TCP bulk load" (fixed F.ext4);
    sc "stress" "synthetic workloads, clean and 2% loss" (fixed F.stress);
    sc "chaos" "reliability under fault injection" (sized F.chaos);
    sc "incast" "N->1 incast collapse, tail-drop vs 802.3x PAUSE"
      (fun ~quick fmt ->
        let rows, gather = F.incast ~quick fmt in
        incast_contract rows gather);
    sc "fabric" "cross-rack incast + spine failure on a leaf/spine fabric"
      (fun ~quick fmt ->
        let rows, reroute = F.fabric ~quick fmt in
        fabric_contract rows reroute);
    sc "congestion"
      "congestion-regime matrix + same-seed GBN vs SACK bursty loss"
      (fun ~quick fmt ->
        let cells, bursty = F.congestion_matrix ~quick fmt in
        congestion_contract cells bursty);
    (* The checker runs the degradation-contract run alone: the whole
       panel, TCP rows included, would cost it five times the allocation. *)
    sc "slo" "open-loop SLOs under gray failure + degradation contract"
      ~run:(fun fmt ->
        Slo.pp_verdict fmt (fst (Slo.run_contract ~quick:true ())))
      (fun ~quick fmt ->
        let rows = F.slo ~quick fmt in
        let verdict, _ = Slo.run_contract ~quick () in
        Format.fprintf fmt "@.%a" Slo.pp_verdict verdict;
        slo_contract rows verdict);
  ]

let names = List.map (fun s -> s.name) all

let find name = List.find_opt (fun s -> s.name = name) all
