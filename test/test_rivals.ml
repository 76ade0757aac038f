(* Tests for the Section 3.2 comparison systems: the GAMMA-like
   active-port protocol and the VIA-like user-level polling interface. *)

open Engine
open Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gamma_cluster () =
  let config =
    { Node.default_config with
      driver_params = Rivals.Gamma.driver_params;
      coalesce = Hw.Nic.no_coalesce }
  in
  let c = Net.create ~config ~n:2 () in
  let mk i =
    let node = Net.node c i in
    Rivals.Gamma.create node.Node.env (List.hd node.Node.eths)
  in
  (c, mk 0, mk 1)

let via_cluster () =
  let config =
    { Node.default_config with
      driver_params = Rivals.Via.driver_params;
      irq_dispatch = Time.us 0.5;
      coalesce = Hw.Nic.no_coalesce }
  in
  let c = Net.create ~config ~n:2 () in
  let mk i =
    let node = Net.node c i in
    Rivals.Via.create node.Node.env (List.hd node.Node.eths)
  in
  (c, mk 0, mk 1)

(* ------------------------------------------------------------------ *)
(* GAMMA *)

let test_gamma_active_handler_fires () =
  let c, ga, gb = gamma_cluster () in
  let got = ref None in
  Rivals.Gamma.bind_port gb ~port:3 (fun m ->
      got := Some (m.Rivals.Gamma.gm_src, m.Rivals.Gamma.gm_bytes));
  Node.spawn (Net.node c 0) (fun () ->
      Rivals.Gamma.send ga ~dst:1 ~port:3 5000);
  Net.run c;
  Alcotest.(check (option (pair int int))) "handler ran" (Some (0, 5000)) !got

let test_gamma_multi_fragment () =
  let c, ga, gb = gamma_cluster () in
  let got = ref 0 in
  Node.spawn (Net.node c 1) (fun () ->
      got := (Rivals.Gamma.recv gb ~port:3).Rivals.Gamma.gm_bytes);
  Node.spawn (Net.node c 0) (fun () ->
      Rivals.Gamma.send ga ~dst:1 ~port:3 50_000);
  Net.run c;
  check_int "reassembled" 50_000 !got

let test_gamma_duplicate_port () =
  let _, ga, _ = gamma_cluster () in
  Rivals.Gamma.bind_port ga ~port:5 (fun _ -> ());
  Alcotest.check_raises "dup"
    (Invalid_argument "Gamma.bind_port: port 5 taken") (fun () ->
      Rivals.Gamma.bind_port ga ~port:5 (fun _ -> ()))

let test_gamma_faster_than_clic () =
  (* GAMMA's replaced driver and lightweight syscalls must beat CLIC's
     latency on the same hardware — the price CLIC pays for keeping the
     vendor driver (paper Section 5). *)
  let lat_gamma =
    let c, ga, gb = gamma_cluster () in
    let t0 = ref 0 and t1 = ref 0 in
    Node.spawn (Net.node c 1) (fun () ->
        ignore (Rivals.Gamma.recv gb ~port:1);
        Rivals.Gamma.send gb ~dst:0 ~port:1 0);
    Node.spawn (Net.node c 0) (fun () ->
        t0 := Sim.now c.Net.sim;
        Rivals.Gamma.send ga ~dst:1 ~port:1 0;
        ignore (Rivals.Gamma.recv ga ~port:1);
        t1 := Sim.now c.Net.sim);
    Net.run c;
    (!t1 - !t0) / 2
  in
  let lat_clic =
    let c = Net.create ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 in
    (Measure.pingpong c pair ~size:0 ()).Measure.one_way
  in
  check_bool
    (Printf.sprintf "gamma %.1fus < clic %.1fus" (Time.to_us lat_gamma)
       (Time.to_us lat_clic))
    true
    (lat_gamma < lat_clic)

(* ------------------------------------------------------------------ *)
(* VIA *)

let test_via_poll_receives () =
  let c, va, vb = via_cluster () in
  let got = ref 0 in
  Node.spawn (Net.node c 1) (fun () ->
      got := (Rivals.Via.recv vb).Rivals.Via.vi_bytes);
  Node.spawn (Net.node c 0) (fun () -> Rivals.Via.send va ~dst:1 800);
  Net.run c;
  check_int "completion" 800 !got;
  check_bool "poll probes were paid" true (Rivals.Via.polls vb >= 1)

let test_via_segments_per_mtu () =
  let c, va, vb = via_cluster () in
  let entries = ref 0 and bytes = ref 0 in
  Node.spawn (Net.node c 1) (fun () ->
      while !bytes < 10_000 do
        let cm = Rivals.Via.recv vb in
        incr entries;
        bytes := !bytes + cm.Rivals.Via.vi_bytes
      done);
  Node.spawn (Net.node c 0) (fun () -> Rivals.Via.send va ~dst:1 10_000);
  Net.run c;
  check_int "all bytes" 10_000 !bytes;
  (* 10000 / (1500-4) -> 7 descriptors *)
  check_int "one completion per MTU descriptor" 7 !entries

let test_via_polling_burns_cpu () =
  let c, _, vb = via_cluster () in
  let nb = Net.node c 1 in
  let util = ref 0. in
  Node.spawn nb (fun () ->
      Os_model.Cpu.reset_stats (Node.cpu nb);
      (* nothing ever arrives: poll for 1 ms, then observe *)
      ignore vb;
      let deadline = Time.ms 1. in
      let rec spin () =
        if Sim.now c.Net.sim < deadline then begin
          Os_model.Cpu.work (Node.cpu nb) (Time.us 0.4);
          Process.delay (Time.us 0.1);
          spin ()
        end
      in
      spin ();
      util := Os_model.Cpu.utilization (Node.cpu nb) ~since:0);
  Net.run c;
  check_bool
    (Printf.sprintf "waiting receiver busy (%.0f%%)" (100. *. !util))
    true (!util > 0.5)

let test_sec3_ordering () =
  let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  match Report.Figures.sec3 null_fmt with
  | [ clic; gamma; via ] ->
      check_bool "gamma latency < clic" true
        (gamma.Report.Figures.r_latency_us < clic.Report.Figures.r_latency_us);
      check_bool "via latency < gamma" true
        (via.Report.Figures.r_latency_us < gamma.Report.Figures.r_latency_us);
      check_bool "gamma bandwidth highest" true
        (gamma.Report.Figures.r_bw_mbps > clic.Report.Figures.r_bw_mbps);
      check_bool "only via burns idle cpu" true
        (via.Report.Figures.r_idle_cpu > 0.5
        && clic.Report.Figures.r_idle_cpu < 0.1
        && gamma.Report.Figures.r_idle_cpu < 0.1)
  | _ -> Alcotest.fail "unexpected sec3 shape"

let suite =
  [
    ("gamma active handler", `Quick, test_gamma_active_handler_fires);
    ("gamma multi-fragment", `Quick, test_gamma_multi_fragment);
    ("gamma duplicate port", `Quick, test_gamma_duplicate_port);
    ("gamma beats clic latency", `Quick, test_gamma_faster_than_clic);
    ("via poll receive", `Quick, test_via_poll_receives);
    ("via per-mtu completions", `Quick, test_via_segments_per_mtu);
    ("via polling burns cpu", `Quick, test_via_polling_burns_cpu);
    ("sec3 ordering", `Slow, test_sec3_ordering);
  ]
