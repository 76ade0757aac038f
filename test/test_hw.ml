(* Tests for the hardware models: frames, links, switch, buses, DMA, NIC. *)

open Engine
open Hw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raw ?frag ~src ~dst n =
  Eth_frame.make ~src:(Mac.of_node src) ~dst:(Mac.of_node dst) ~ethertype:0x88
    ~payload_bytes:n ?frag (Eth_frame.Raw n)

(* ------------------------------------------------------------------ *)
(* Frames *)

let test_frame_sizes () =
  let f = raw ~src:0 ~dst:1 1500 in
  check_int "wire bytes" (8 + 14 + 1500 + 4 + 12) (Eth_frame.on_wire_bytes f);
  check_int "buffer bytes" (14 + 1500 + 4) (Eth_frame.buffer_bytes f);
  (* sub-minimum payloads are padded on the wire *)
  let tiny = raw ~src:0 ~dst:1 1 in
  check_int "padded" (8 + 14 + 46 + 4 + 12) (Eth_frame.on_wire_bytes tiny);
  Alcotest.check_raises "negative payload"
    (Invalid_argument "Eth_frame.make: negative payload") (fun () ->
      ignore (raw ~src:0 ~dst:1 (-1)))

let test_mac () =
  Alcotest.check_raises "negative node"
    (Invalid_argument "Mac.of_node: negative node id") (fun () ->
      ignore (Mac.of_node (-1)))

(* ------------------------------------------------------------------ *)
(* Link *)

let test_link_serialization_time () =
  let sim = Sim.create () in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 () in
  (* 1500B payload -> 1538 wire bytes -> 12304 ns at 1 Gbit/s *)
  check_int "1500B frame" 12_304
    (Link.serialization_time link (raw ~src:0 ~dst:1 1500))

let test_link_delivery_and_fifo () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~name:"l" ~bits_per_s:1e9 ~propagation:(Time.ns 100) ()
  in
  let got = ref [] in
  Link.connect link (fun f ->
      got := (f.Eth_frame.payload_bytes, Sim.now sim) :: !got);
  Link.send link (raw ~src:0 ~dst:1 1500);
  Link.send link (raw ~src:0 ~dst:1 46);
  Sim.run sim;
  match List.rev !got with
  | [ (1500, t1); (46, t2) ] ->
      check_int "first arrival" (12_304 + 100) t1;
      (* second frame serializes after the first *)
      check_int "second arrival" (12_304 + 672 + 100) t2
  | other -> Alcotest.failf "unexpected deliveries: %d" (List.length other)

let test_link_back_to_back_pipelining () =
  let sim = Sim.create () in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 () in
  let count = ref 0 in
  Link.connect link (fun _ -> incr count);
  for _ = 1 to 100 do
    Link.send link (raw ~src:0 ~dst:1 1500)
  done;
  Sim.run sim;
  check_int "all delivered" 100 !count;
  check_int "sent counter" 100 (Link.frames_sent link);
  (* 100 frames of 1538 wire bytes at 1 Gbit/s: clock ends at last arrival *)
  check_int "stream duration" (100 * 12_304 + 500) (Sim.now sim)

let test_link_fault_injection () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~name:"l" ~bits_per_s:1e9 ~fault:(Fault.drop_nth ~every:3)
      ()
  in
  let count = ref 0 in
  Link.connect link (fun _ -> incr count);
  for _ = 1 to 9 do
    Link.send link (raw ~src:0 ~dst:1 100)
  done;
  Sim.run sim;
  check_int "two thirds delivered" 6 !count;
  check_int "drops counted" 3 (Link.frames_dropped link)

let test_fault_duplicate_copies () =
  let sim = Sim.create () in
  let fault = Fault.duplicate ~rng:(Rng.create ~seed:7) ~prob:1. in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 ~fault () in
  let count = ref 0 in
  Link.connect link (fun _ -> incr count);
  for _ = 1 to 5 do
    Link.send link (raw ~src:0 ~dst:1 100)
  done;
  Sim.run sim;
  check_int "every frame arrives twice" 10 !count;
  check_int "duplications counted" 5 (Fault.duplicates fault);
  check_int "no drops" 0 (Link.frames_dropped link)

let test_fault_gilbert_elliott_bursts () =
  let fault =
    Fault.gilbert_elliott ~rng:(Rng.create ~seed:42) ~p_good_to_bad:0.05
      ~p_bad_to_good:0.2 ~loss_bad:1.
  in
  let n = 2000 in
  let pattern = List.init n (fun _ -> Fault.frame fault ~now:0 ~ser:0 = []) in
  let drops = List.length (List.filter Fun.id pattern) in
  check_int "drops counted" drops (Fault.drops fault);
  (* stationary bad-state fraction is 0.05 / (0.05 + 0.2) = 20%, and the
     bad state loses everything: average loss must sit near 20% *)
  check_bool "loss near the stationary rate" true
    (drops > n / 10 && drops < (2 * n) / 5);
  (* losses must clump: mean dwell in the bad state is 1/0.2 = 5 frames,
     while uniform loss at the same rate would give runs of ~1.25 *)
  let runs, _ =
    List.fold_left
      (fun (runs, prev) d -> ((if d && not prev then runs + 1 else runs), d))
      (0, false) pattern
  in
  check_bool "drops arrive in bursts" true
    (runs > 0 && float_of_int drops /. float_of_int runs > 2.5)

let test_fault_flap_windows () =
  let fault = Fault.flap ~up:(Time.us 10.) ~down:(Time.us 5.) () in
  check_bool "up at t=0" true (Fault.frame fault ~now:0 ~ser:0 <> []);
  check_bool "still up late in the window" true
    (Fault.frame fault ~now:(Time.us 9.) ~ser:0 <> []);
  check_bool "down between windows" true
    (Fault.frame fault ~now:(Time.us 12.) ~ser:0 = []);
  check_bool "up again next period" true
    (Fault.frame fault ~now:(Time.us 16.) ~ser:0 <> []);
  check_int "the outage counted one drop" 1 (Fault.drops fault)

let test_fault_jitter_reorders () =
  let sim = Sim.create () in
  let fault = Fault.jitter ~rng:(Rng.create ~seed:3) ~max_delay:(Time.us 100.) in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 ~fault () in
  let order = ref [] in
  Link.connect link (fun f -> order := f.Eth_frame.payload_bytes :: !order);
  let sent = List.init 10 (fun i -> 100 + i) in
  List.iter (fun n -> Link.send link (raw ~src:0 ~dst:1 n)) sent;
  Sim.run sim;
  let got = List.rev !order in
  check_int "nothing lost" 10 (List.length got);
  Alcotest.(check (list int)) "same frames" sent (List.sort compare got);
  (* back-to-back frames are ~0.7us apart on the wire; up to 100us of
     per-frame jitter must have reordered at least one pair *)
  check_bool "delivery order scrambled" true (got <> sent)

let test_fault_compose_stages () =
  let sim = Sim.create () in
  let fault =
    Fault.compose
      [
        Fault.drop_nth ~every:2;
        Fault.duplicate ~rng:(Rng.create ~seed:5) ~prob:1.;
      ]
  in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 ~fault () in
  let count = ref 0 in
  Link.connect link (fun _ -> incr count);
  for _ = 1 to 6 do
    Link.send link (raw ~src:0 ~dst:1 100)
  done;
  Sim.run sim;
  (* every 2nd frame dropped before the duplicator sees it; the three
     survivors each arrive twice *)
  check_int "survivors duplicated" 6 !count;
  check_int "drops counted through compose" 3 (Fault.drops fault);
  check_int "duplications counted through compose" 3 (Fault.duplicates fault)

let test_fault_corruption_flags_copies () =
  let fault = Fault.corrupt ~rng:(Rng.create ~seed:13) ~prob:1. in
  for _ = 1 to 5 do
    match Fault.frame fault ~now:0 ~ser:0 with
    | [ { Fault.delay = 0; corrupt = true } ] -> ()
    | _ -> Alcotest.fail "expected one corrupted zero-delay copy"
  done;
  check_int "corruptions counted" 5 (Fault.corruptions fault);
  check_int "no drops" 0 (Fault.drops fault);
  (* a corrupted frame still occupies the wire: composition with jitter
     keeps the flag *)
  let composed =
    Fault.compose
      [
        Fault.corrupt ~rng:(Rng.create ~seed:13) ~prob:1.;
        Fault.jitter ~rng:(Rng.create ~seed:3) ~max_delay:(Time.us 10.);
      ]
  in
  match Fault.frame composed ~now:0 ~ser:0 with
  | [ { Fault.corrupt = true; _ } ] -> ()
  | _ -> Alcotest.fail "corruption flag lost through compose"

let test_link_no_receiver_drops () =
  let sim = Sim.create () in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 () in
  Link.send link (raw ~src:0 ~dst:1 100);
  Sim.run sim;
  check_int "dropped" 1 (Link.frames_dropped link)

(* ------------------------------------------------------------------ *)
(* Switch *)

let make_switch sim nodes =
  let sw = Switch.create sim ~name:"sw" ~bits_per_s:1e9 () in
  List.iter (fun n -> Switch.add_port sw ~node:n) nodes;
  sw

let test_switch_unicast () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1; 2 ] in
  let got = Array.make 3 0 in
  List.iter
    (fun n -> Switch.connect_node sw ~node:n (fun _ -> got.(n) <- got.(n) + 1))
    [ 0; 1; 2 ];
  Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 500);
  Sim.run sim;
  Alcotest.(check (array int)) "only node 2" [| 0; 0; 1 |] got;
  check_int "forwarded" 1 (Switch.frames_forwarded sw)

let test_switch_broadcast_floods () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1; 2; 3 ] in
  let got = Array.make 4 0 in
  List.iter
    (fun n -> Switch.connect_node sw ~node:n (fun _ -> got.(n) <- got.(n) + 1))
    [ 0; 1; 2; 3 ];
  let bcast =
    Eth_frame.make ~src:(Mac.of_node 0) ~dst:Mac.broadcast ~ethertype:0x88
      ~payload_bytes:100 (Eth_frame.Raw 100)
  in
  Link.send (Switch.uplink sw ~node:0) bcast;
  Sim.run sim;
  Alcotest.(check (array int)) "all but sender" [| 0; 1; 1; 1 |] got;
  check_int "flood copies" 3 (Switch.frames_flooded sw)

let test_switch_unknown_destination () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1 ] in
  Switch.connect_node sw ~node:1 (fun _ -> ());
  Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:9 100);
  Sim.run sim;
  check_int "unroutable" 1 (Switch.frames_unroutable sw)

let test_switch_duplicate_port () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0 ] in
  Alcotest.check_raises "dup"
    (Invalid_argument "Switch.add_port: duplicate node 0") (fun () ->
      Switch.add_port sw ~node:0)

(* ------------------------------------------------------------------ *)
(* PCI / DMA *)

let test_pci_peak () =
  Alcotest.(check (float 1.)) "33MHz x 4B" 132e6
    (Pci.peak_bytes_per_s ~width_bytes:4)

let test_dma_occupies_both_buses () =
  let sim = Sim.create () in
  let pci =
    Bus.create sim ~name:"pci" ~bytes_per_s:100e6 ~setup:(Time.us 1.) ()
  in
  let membus = Bus.create sim ~name:"mem" ~bytes_per_s:800e6 () in
  let finished = ref 0 in
  Process.spawn sim (fun () ->
      Dma.transfer ~pci ~membus 100_000;
      finished := Sim.now sim);
  Sim.run sim;
  (* PCI is slower: 100kB at 100 MB/s = 1ms + 1us setup *)
  check_int "bounded by pci" (Time.us 1001.) !finished;
  check_int "membus also crossed" 100_000 (Bus.bytes_moved membus)

let test_dma_zero_bytes () =
  let sim = Sim.create () in
  let pci = Bus.create sim ~name:"pci" ~bytes_per_s:1e6 () in
  let membus = Bus.create sim ~name:"mem" ~bytes_per_s:1e6 () in
  Process.spawn sim (fun () -> Dma.transfer ~pci ~membus 0);
  Sim.run sim;
  check_int "instant" 0 (Sim.now sim)

(* ------------------------------------------------------------------ *)
(* NIC *)

let nic_rig ?coalesce ?fragmentation ?(mtu = 1500) () =
  let sim = Sim.create () in
  let pci = Pci.create sim () in
  let membus = Membus.create sim () in
  let mk name =
    Nic.create sim ~name ~mtu ~pci ~membus ?coalesce ?fragmentation ()
  in
  let a = mk "nicA" and b = mk "nicB" in
  let ab = Link.create sim ~name:"a->b" ~bits_per_s:1e9 () in
  let ba = Link.create sim ~name:"b->a" ~bits_per_s:1e9 () in
  Nic.attach_uplink a ab;
  Nic.attach_uplink b ba;
  Link.connect ab (Nic.rx_from_wire b);
  Link.connect ba (Nic.rx_from_wire a);
  (sim, a, b)

let post sim nic frame =
  Process.spawn sim (fun () ->
      Nic.post_tx_blocking nic
        { Nic.frame; needs_dma = true; internal_copy = true;
          on_complete = (fun () -> ()) })

let test_nic_tx_rx_roundtrip () =
  let sim, a, b = nic_rig ~coalesce:Nic.no_coalesce () in
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  post sim a (raw ~src:0 ~dst:1 1000);
  Sim.run sim;
  check_int "interrupt raised" 1 !irqs;
  check_int "rx pending" 1 (Nic.rx_pending b);
  (match Nic.take_rx b with
  | [ d ] ->
      check_int "payload" 1000 d.Nic.rx_frame.Eth_frame.payload_bytes;
      check_int "host bytes" (14 + 1000 + 4) d.Nic.host_bytes
  | l -> Alcotest.failf "expected 1 desc, got %d" (List.length l));
  check_int "pending drained" 0 (Nic.rx_pending b)

let test_nic_irq_masking () =
  let sim, a, b = nic_rig ~coalesce:Nic.no_coalesce () in
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  for _ = 1 to 5 do
    post sim a (raw ~src:0 ~dst:1 1000)
  done;
  Sim.run sim;
  (* Only the first packet interrupts; the rest arrive masked. *)
  check_int "one interrupt" 1 !irqs;
  check_int "all pending" 5 (Nic.rx_pending b);
  ignore (Nic.take_rx b);
  Nic.unmask_irq b;
  check_int "no further interrupt" 1 !irqs

let test_nic_unmask_refires_when_pending () =
  let sim, a, b = nic_rig ~coalesce:Nic.no_coalesce () in
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  for _ = 1 to 3 do
    post sim a (raw ~src:0 ~dst:1 500)
  done;
  Sim.run sim;
  check_int "first irq" 1 !irqs;
  (* ISR drains only partially here: take everything, then more arrives *)
  ignore (Nic.take_rx b);
  post sim a (raw ~src:0 ~dst:1 500);
  Nic.unmask_irq b;
  Sim.run sim;
  check_int "second irq for late packet" 2 !irqs

let test_nic_coalescing_count () =
  let coalesce =
    { Nic.max_frames = 4; quiet = Time.ms 10.; absolute = Time.ms 100. }
  in
  let sim, a, b = nic_rig ~coalesce () in
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  for _ = 1 to 4 do
    post sim a (raw ~src:0 ~dst:1 1000)
  done;
  Sim.run sim;
  check_int "one irq for four frames" 1 !irqs;
  check_int "four pending" 4 (Nic.rx_pending b)

let test_nic_coalescing_quiet_timer () =
  let coalesce =
    { Nic.max_frames = 100; quiet = Time.us 5.; absolute = Time.ms 100. }
  in
  let sim, a, b = nic_rig ~coalesce () in
  let irq_at = ref 0 in
  Nic.set_interrupt b (fun () -> irq_at := Sim.now sim);
  post sim a (raw ~src:0 ~dst:1 1000);
  Sim.run sim;
  check_bool "fired by quiet timer" true (!irq_at > 0);
  check_int "one pending" 1 (Nic.rx_pending b)

let test_nic_rx_ring_overflow () =
  let sim = Sim.create () in
  let pci = Pci.create sim () in
  let membus = Membus.create sim () in
  let a =
    Nic.create sim ~name:"a" ~mtu:1500 ~pci ~membus
      ~coalesce:Nic.no_coalesce ()
  in
  let b =
    Nic.create sim ~name:"b" ~mtu:1500 ~pci ~membus ~rx_ring:2
      ~coalesce:Nic.no_coalesce ()
  in
  let ab = Link.create sim ~name:"a->b" ~bits_per_s:1e9 () in
  Nic.attach_uplink a ab;
  Link.connect ab (Nic.rx_from_wire b);
  Nic.set_interrupt b (fun () -> ());
  for _ = 1 to 5 do
    post sim a (raw ~src:0 ~dst:1 1000)
  done;
  Sim.run sim;
  check_int "ring holds two" 2 (Nic.rx_pending b);
  check_int "rest dropped" 3 (Nic.rx_dropped b)

let test_nic_bad_fcs_drops_at_mac () =
  (* A corrupting link: the receiving MAC recomputes the FCS and discards
     the frame before it reaches the ring — counted, never delivered. *)
  let sim = Sim.create () in
  let pci = Pci.create sim () in
  let membus = Membus.create sim () in
  let mk name =
    Nic.create sim ~name ~mtu:1500 ~pci ~membus ~coalesce:Nic.no_coalesce ()
  in
  let a = mk "nicA" and b = mk "nicB" in
  let ab =
    Link.create sim ~name:"a->b" ~bits_per_s:1e9
      ~fault:(Fault.corrupt ~rng:(Rng.create ~seed:21) ~prob:1.)
      ()
  in
  Nic.attach_uplink a ab;
  Link.connect ab (Nic.rx_from_wire b);
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  for _ = 1 to 5 do
    post sim a (raw ~src:0 ~dst:1 1000)
  done;
  Sim.run sim;
  check_int "every frame dropped as bad FCS" 5 (Nic.bad_fcs b);
  check_int "nothing reached the ring" 0 (Nic.rx_pending b);
  check_int "no rx counted" 0 (Nic.rx_packets b);
  check_int "no interrupt for garbage" 0 !irqs

let test_nic_power_off_mid_dma () =
  (* Regression: a frame whose receive DMA is in flight when the power
     fails must not land in the (already drained) ring afterwards — the
     descriptor would be stranded there forever and its ring slot lost. *)
  let sim, a, b = nic_rig ~coalesce:Nic.no_coalesce () in
  Nic.set_interrupt b (fun () -> ());
  post sim a (raw ~src:0 ~dst:1 1000);
  (* arrival ~8.3us, firmware 0.8us, then ~7.6us of DMA: 12us is mid-DMA *)
  Process.spawn sim ~delay:(Time.us 12.) (fun () -> Nic.power_off b);
  Sim.run sim;
  check_bool "nic is down" true (Nic.is_down b);
  check_int "nothing stranded in the ring" 0 (Nic.rx_pending b);
  (* the slot the in-flight frame held must have been returned: after
     power-on the ring accepts a full burst again *)
  Nic.power_on b;
  for _ = 1 to 4 do
    post sim a (raw ~src:0 ~dst:1 500)
  done;
  Sim.run sim;
  check_int "ring serves a fresh burst" 4 (Nic.rx_pending b)

let test_nic_tx_ring_full () =
  let sim = Sim.create () in
  let pci = Pci.create sim () in
  let membus = Membus.create sim () in
  let nic =
    Nic.create sim ~name:"a" ~mtu:1500 ~pci ~membus ~tx_ring:1
      ~coalesce:Nic.no_coalesce ()
  in
  (* No uplink: the pump still consumes, but slowly enough that a second
     immediate post finds the ring full. *)
  let d frame =
    { Nic.frame; needs_dma = true; internal_copy = false;
      on_complete = (fun () -> ()) }
  in
  let first = ref false and second = ref true in
  Process.spawn sim (fun () ->
      first := Nic.try_post_tx nic (d (raw ~src:0 ~dst:1 1500));
      second := Nic.try_post_tx nic (d (raw ~src:0 ~dst:1 1500)));
  Sim.run sim;
  check_bool "first accepted" true !first;
  check_bool "second rejected" false !second

let test_nic_mtu_enforced () =
  let sim, a, _ = nic_rig () in
  Process.spawn sim (fun () ->
      match
        Nic.try_post_tx a
          { Nic.frame = raw ~src:0 ~dst:1 2000; needs_dma = true;
            internal_copy = false; on_complete = (fun () -> ()) }
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  Sim.run sim

let test_nic_fragmentation_roundtrip () =
  let sim, a, b = nic_rig ~fragmentation:true ~mtu:1500 () in
  let irqs = ref 0 in
  Nic.set_interrupt b (fun () -> incr irqs);
  (* 4000B packet -> 3 wire frames -> one reassembled host packet *)
  post sim a (raw ~src:0 ~dst:1 4000);
  Sim.run sim;
  check_int "one host packet" 1 (Nic.rx_packets b);
  (match Nic.take_rx b with
  | [ d ] ->
      check_int "reassembled size" 4000 d.Nic.rx_frame.Eth_frame.payload_bytes;
      check_bool "frag cleared" true (d.Nic.rx_frame.Eth_frame.frag = None)
  | l -> Alcotest.failf "expected 1 desc, got %d" (List.length l));
  check_int "one interrupt for the whole packet" 1 !irqs

let prop_fragmentation_counts =
  QCheck.Test.make ~count:100 ~name:"NIC fragmentation frame count"
    QCheck.(pair (int_range 1 100_000) (int_range 100 9000))
    (fun (size, mtu) ->
      let sim = Sim.create () in
      let pci = Pci.create sim () in
      let membus = Membus.create sim () in
      let a =
        Nic.create sim ~name:"a" ~mtu ~pci ~membus ~fragmentation:true
          ~tx_ring:4096 ()
      in
      let b =
        Nic.create sim ~name:"b" ~mtu ~pci ~membus ~fragmentation:true
          ~rx_ring:4096 ()
      in
      let ab = Link.create sim ~name:"ab" ~bits_per_s:1e9 () in
      Nic.attach_uplink a ab;
      Link.connect ab (Nic.rx_from_wire b);
      Nic.set_interrupt b (fun () -> ());
      post sim a (raw ~src:0 ~dst:1 size);
      Sim.run sim;
      let expected_frames = (size + mtu - 1) / mtu in
      Link.frames_sent ab = expected_frames
      && Nic.rx_packets b = 1
      &&
      match Nic.take_rx b with
      | [ d ] -> d.Nic.rx_frame.Eth_frame.payload_bytes = size
      | _ -> false)

let test_nic_coalescing_absolute_cap () =
  (* A steady trickle keeps resetting the quiet timer; the absolute timer
     must still fire and bound the latency. *)
  let coalesce =
    { Nic.max_frames = 1000; quiet = Time.us 50.; absolute = Time.us 120. }
  in
  let sim, a, b = nic_rig ~coalesce () in
  let first_irq_at = ref 0 in
  Nic.set_interrupt b (fun () ->
      if !first_irq_at = 0 then first_irq_at := Sim.now sim);
  (* one small frame every 30us: quiet timer (50us) never expires *)
  for i = 0 to 9 do
    Process.spawn sim ~delay:(i * Time.us 30.) (fun () ->
        Nic.post_tx_blocking a
          { Nic.frame = raw ~src:0 ~dst:1 64; needs_dma = true;
            internal_copy = false; on_complete = (fun () -> ()) })
  done;
  Sim.run sim;
  check_bool "absolute holdoff bounded the first interrupt" true
    (!first_irq_at > 0 && !first_irq_at < Time.us 200.)

let test_nic_tx_ring_accounting () =
  let sim, a, _ = nic_rig () in
  let free0 = Nic.tx_ring_free a in
  Process.spawn sim (fun () ->
      Nic.post_tx_blocking a
        { Nic.frame = raw ~src:0 ~dst:1 500; needs_dma = true;
          internal_copy = false; on_complete = (fun () -> ()) });
  Sim.run sim;
  check_int "slot returned after transmit" free0 (Nic.tx_ring_free a)

let test_switch_multicast_group () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1; 2 ] in
  let got = Array.make 3 0 in
  List.iter
    (fun n -> Switch.connect_node sw ~node:n (fun _ -> got.(n) <- got.(n) + 1))
    [ 0; 1; 2 ];
  let mc =
    Eth_frame.make ~src:(Mac.of_node 1) ~dst:(Mac.Multicast 4) ~ethertype:0x88
      ~payload_bytes:64 (Eth_frame.Raw 64)
  in
  Link.send (Switch.uplink sw ~node:1) mc;
  Sim.run sim;
  Alcotest.(check (array int)) "flooded except sender" [| 1; 0; 1 |] got

let test_link_queue_depth_visible () =
  let sim = Sim.create () in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e6 () in
  Link.connect link (fun _ -> ());
  for _ = 1 to 5 do
    Link.send link (raw ~src:0 ~dst:1 1000)
  done;
  (* first frame is serializing; four wait behind it *)
  check_int "queued behind transmitter" 4 (Link.queue_depth link);
  Sim.run sim;
  check_int "drained" 0 (Link.queue_depth link)

(* ------------------------------------------------------------------ *)
(* 802.3x MAC control *)

let test_mac_control_roundtrip () =
  List.iter
    (fun quanta ->
      let payload = Mac_control.encode ~quanta in
      match Mac_control.decode payload with
      | Ok q -> check_int "quanta round-trip" quanta q
      | Error e -> Alcotest.fail e)
    [ 0; 1; 255; 256; 0x1234; Mac_control.max_quanta ];
  (match Mac_control.decode (Bytes.create 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short payload must not decode");
  (match Mac_control.decode (Mac_control.encode ~quanta:0x77) with
  | Ok 0x77 -> ()
  | _ -> Alcotest.fail "opcode survives encode");
  Alcotest.check_raises "quanta out of range"
    (Invalid_argument "Mac_control.encode: quanta 65536") (fun () ->
      ignore (Mac_control.encode ~quanta:0x10000))

let test_mac_control_frame_shape () =
  let f = Mac_control.pause ~src:(Mac.of_node 3) ~quanta:50 in
  check_bool "is mac control" true (Mac_control.is_mac_control f);
  check_bool "dst is flow-control multicast" true
    (f.Eth_frame.dst = Mac.flow_control);
  (match Mac_control.quanta_of f with
  | Some 50 -> ()
  | _ -> Alcotest.fail "quanta_of must recover the encoded quanta");
  (match Mac_control.quanta_of (Mac_control.xon ~src:(Mac.of_node 3)) with
  | Some 0 -> ()
  | _ -> Alcotest.fail "xon means quanta 0");
  (* a data frame is not MAC control *)
  check_bool "data frame not control" true
    (Mac_control.quanta_of (raw ~src:0 ~dst:1 100) = None);
  (* one quantum is 512 bit times: 512 ns at 1 Gb/s *)
  check_int "quantum at 1Gb/s" (Time.ns 512)
    (Mac_control.span_of_quanta ~bits_per_s:1e9 1);
  check_int "100 quanta at 1Gb/s" (Time.ns 51200)
    (Mac_control.span_of_quanta ~bits_per_s:1e9 100)

(* ------------------------------------------------------------------ *)
(* Switch: counters, bounded ingress, shared buffer, PAUSE *)

(* One run mixing unicast, flood and unroutable traffic: each counter must
   tally its own class only (a flood must not count the ingress port, a
   unicast must not touch the flood counter, ...). *)
let test_switch_counter_regression () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1; 2; 3 ] in
  List.iter
    (fun n -> Switch.connect_node sw ~node:n (fun _ -> ()))
    [ 0; 1; 2; 3 ];
  let bcast =
    Eth_frame.make ~src:(Mac.of_node 1) ~dst:Mac.broadcast ~ethertype:0x88
      ~payload_bytes:100 (Eth_frame.Raw 100)
  in
  Process.spawn sim (fun () ->
      Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 500);
      Link.send (Switch.uplink sw ~node:1) bcast;
      Link.send (Switch.uplink sw ~node:2) (raw ~src:2 ~dst:9 100);
      Link.send (Switch.uplink sw ~node:3) (raw ~src:3 ~dst:0 200));
  Sim.run sim;
  check_int "unicasts forwarded" 2 (Switch.frames_forwarded sw);
  check_int "flood copies exclude ingress port" 3 (Switch.frames_flooded sw);
  check_int "unroutable" 1 (Switch.frames_unroutable sw);
  check_int "no drops on an unloaded switch" 0
    (Switch.egress_drops sw + Switch.ingress_drops sw)

let test_switch_ingress_bound () =
  let sim = Sim.create () in
  let sw =
    Switch.create sim ~name:"sw" ~bits_per_s:1e9 ~ingress_frames:2 ()
  in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1 ];
  let got = ref 0 in
  Switch.connect_node sw ~node:1 (fun _ -> incr got);
  Switch.connect_node sw ~node:0 (fun _ -> ());
  (* blast 6 frames into the bounded uplink in one instant: one serializes,
     two queue, three tail-drop at the switch ingress *)
  for _ = 1 to 6 do
    Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:1 1000)
  done;
  Sim.run sim;
  check_int "ingress drops" 3 (Switch.ingress_drops sw);
  check_int "survivors delivered" 3 !got;
  check_int "forwarded only what ingress admitted" 3
    (Switch.frames_forwarded sw);
  check_int "no egress drops" 0 (Switch.egress_drops sw)

let test_switch_egress_cap_tail_drop () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~name:"sw" ~bits_per_s:1e9 ~egress_frames:2 () in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2 ];
  let got = ref 0 in
  Switch.connect_node sw ~node:2 (fun _ -> incr got);
  List.iter (fun n -> Switch.connect_node sw ~node:n (fun _ -> ())) [ 0; 1 ];
  (* two ports converge on node 2; each frame takes ~12 us on the egress
     wire, so the 2-frame FIFO overflows while the first still serializes *)
  Process.spawn sim (fun () ->
      for _ = 1 to 4 do
        Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.run sim;
  check_bool "egress tail-drops" true (Switch.egress_drops sw > 0);
  check_int "delivered = forwarded - dropped" !got
    (Switch.frames_forwarded sw - Switch.egress_drops sw);
  check_int "ingress unbounded here" 0 (Switch.ingress_drops sw)

let shared_buffer ?(total = 256 * 1024) ?(reserve = 0) ?(high = 16 * 1024)
    ?(low = 8 * 1024) ?(pause = true) () =
  {
    Switch.total_bytes = total;
    port_reserve_bytes = reserve;
    ingress_high_bytes = high;
    ingress_low_bytes = low;
    pause;
    ecn_threshold = 0;
  }

let test_switch_buffer_ledger_balances () =
  let sim = Sim.create () in
  let sw =
    Switch.create sim ~name:"sw" ~bits_per_s:1e9
      ~buffer:(shared_buffer ~reserve:2048 ~pause:false ()) ()
  in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2 ];
  let got = ref 0 in
  Switch.connect_node sw ~node:2 (fun _ -> incr got);
  List.iter (fun n -> Switch.connect_node sw ~node:n (fun _ -> ())) [ 0; 1 ];
  Process.spawn sim (fun () ->
      for _ = 1 to 5 do
        Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.run sim;
  check_int "all delivered" 10 !got;
  check_int "ledger empty after drain" 0 (Switch.buffer_occupied sw);
  check_bool "peak recorded" true (Switch.peak_buffer_occupied sw > 0);
  check_int "nothing dropped" 0
    (Switch.egress_drops sw + Switch.ingress_drops sw)

let test_switch_buffer_exhaustion_drops () =
  let sim = Sim.create () in
  (* room for two full frames and change: the third concurrent arrival
     must be refused at admission *)
  let sw =
    Switch.create sim ~name:"sw" ~bits_per_s:1e9
      ~buffer:
        (shared_buffer ~total:4000 ~high:1_000_000 ~low:0 ~pause:false ())
      ()
  in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2 ];
  let got = ref 0 in
  Switch.connect_node sw ~node:2 (fun _ -> incr got);
  List.iter (fun n -> Switch.connect_node sw ~node:n (fun _ -> ())) [ 0; 1 ];
  Process.spawn sim (fun () ->
      for _ = 1 to 4 do
        Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.run sim;
  check_bool "buffer exhaustion drops" true (Switch.egress_drops sw > 0);
  check_int "delivered the rest" !got
    (Switch.frames_forwarded sw - Switch.egress_drops sw);
  check_int "ledger empty after drain" 0 (Switch.buffer_occupied sw)

(* Congest node 2's egress from two ports: each ingress port's buffered
   backlog must cross the high watermark (XOFF with real quanta), then the
   drain must bring it under the low watermark (XON, quanta 0). *)
let test_switch_xoff_xon_cycle () =
  let sim = Sim.create () in
  let sw =
    Switch.create sim ~name:"sw" ~bits_per_s:1e9
      ~buffer:(shared_buffer ~high:4000 ~low:1500 ())
      ()
  in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2 ];
  let pauses = ref [] in
  Switch.connect_node sw ~node:0 (fun f ->
      match Mac_control.quanta_of f with
      | Some q -> pauses := q :: !pauses
      | None -> ());
  Switch.connect_node sw ~node:1 (fun _ -> ());
  Switch.connect_node sw ~node:2 (fun _ -> ());
  Process.spawn sim (fun () ->
      for _ = 1 to 8 do
        Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.run sim;
  let pauses = List.rev !pauses in
  check_bool "XOFF reached the station" true
    (List.exists (fun q -> q > 0) pauses);
  check_bool "XON followed" true (List.exists (fun q -> q = 0) pauses);
  (match List.rev pauses with
  | 0 :: _ -> ()
  | _ -> Alcotest.fail "the last PAUSE frame must be an XON");
  check_bool "switch counted its PAUSE frames" true
    (Switch.pause_frames_tx sw >= 2);
  check_int "nothing dropped under PAUSE" 0
    (Switch.egress_drops sw + Switch.ingress_drops sw)

(* A station PAUSEs the switch: the gated egress must sit on its queue for
   the full quanta span, then resume; an XON reopens it early. *)
let test_switch_honors_station_pause () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~name:"sw" ~bits_per_s:1e9 () in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1 ];
  let delivered_at = ref 0 in
  Switch.connect_node sw ~node:1 (fun _ -> delivered_at := Sim.now sim);
  Switch.connect_node sw ~node:0 (fun _ -> ());
  let quanta = 200 in
  let pause_sent_at = ref 0 in
  Process.spawn sim (fun () ->
      pause_sent_at := Sim.now sim;
      Link.send
        (Switch.uplink sw ~node:1)
        (Mac_control.pause ~src:(Mac.of_node 1) ~quanta);
      Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:1 1000));
  Sim.run sim;
  let gate_span = Mac_control.span_of_quanta ~bits_per_s:1e9 quanta in
  check_int "station pause counted" 1 (Switch.pause_frames_rx sw);
  check_bool "delivery held for the pause span" true
    (!delivered_at > !pause_sent_at + gate_span);
  check_bool "egress pause time accounted" true
    (Switch.egress_paused_ns sw > 0)

let test_switch_xon_resumes_early () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~name:"sw" ~bits_per_s:1e9 () in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1 ];
  let delivered_at = ref 0 in
  Switch.connect_node sw ~node:1 (fun _ -> delivered_at := Sim.now sim);
  Switch.connect_node sw ~node:0 (fun _ -> ());
  (* XOFF for a huge span, XON shortly after: delivery must not wait for
     the original quanta *)
  Process.spawn sim (fun () ->
      Link.send
        (Switch.uplink sw ~node:1)
        (Mac_control.pause ~src:(Mac.of_node 1)
           ~quanta:Mac_control.max_quanta);
      Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:1 1000);
      Process.delay (Time.us 30.);
      Link.send (Switch.uplink sw ~node:1)
        (Mac_control.xon ~src:(Mac.of_node 1)));
  Sim.run sim;
  let full_span =
    Mac_control.span_of_quanta ~bits_per_s:1e9 Mac_control.max_quanta
  in
  check_bool "delivered" true (!delivered_at > 0);
  check_bool "resumed well before the XOFF expiry" true
    (!delivered_at < full_span);
  check_int "both control frames seen" 2 (Switch.pause_frames_rx sw)

let test_switch_protected_provisioning () =
  let sim = Sim.create () in
  let mk ?ingress_frames ?buffer () =
    let sw =
      Switch.create sim ~name:"sw" ~bits_per_s:1e9 ?ingress_frames ?buffer ()
    in
    List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2; 3; 4 ];
    sw
  in
  check_bool "default buffer + bounded ingress is protected" true
    (Switch.protected_provisioning
       (mk ~ingress_frames:6 ~buffer:Switch.default_buffer ()));
  check_bool "unbounded ingress is not protected" false
    (Switch.protected_provisioning (mk ~buffer:Switch.default_buffer ()));
  check_bool "tail-drop fabric is not protected" false
    (Switch.protected_provisioning
       (mk ~ingress_frames:6
          ~buffer:{ Switch.default_buffer with pause = false }
          ()));
  check_bool "undersized pool is not protected" false
    (Switch.protected_provisioning
       (mk ~ingress_frames:6
          ~buffer:{ Switch.default_buffer with total_bytes = 64 * 1024 }
          ()))

(* ------------------------------------------------------------------ *)
(* NIC 802.3x *)

let nic_pause_rig () =
  let sim = Sim.create () in
  let pci = Pci.create sim () in
  let membus = Membus.create sim () in
  let mk name =
    Nic.create sim ~name ~mtu:1500 ~pci ~membus ~pause:true ()
  in
  let a = mk "nicA" and b = mk "nicB" in
  let ab = Link.create sim ~name:"a->b" ~bits_per_s:1e9 () in
  let ba = Link.create sim ~name:"b->a" ~bits_per_s:1e9 () in
  Nic.attach_uplink a ab;
  Nic.attach_uplink b ba;
  Link.connect ab (Nic.rx_from_wire b);
  Link.connect ba (Nic.rx_from_wire a);
  (sim, a, b)

let test_nic_pause_gates_tx () =
  let sim, a, b = nic_pause_rig () in
  let quanta = 100 in
  let wire_at = ref (-1) in
  Process.spawn sim (fun () ->
      (* the PAUSE lands first (rx firmware takes 800 ns); the transmit
         posted right after must hold until the quanta elapse *)
      Nic.rx_from_wire a (Mac_control.pause ~src:(Mac.of_node 1) ~quanta);
      Process.delay (Time.us 2.);
      check_bool "tx paused after XOFF" true (Nic.is_tx_paused a);
      Nic.post_tx_blocking a
        { Nic.frame = raw ~src:0 ~dst:1 1000; needs_dma = true;
          internal_copy = false;
          on_complete = (fun () -> wire_at := Sim.now sim) });
  Sim.run sim;
  let span = Mac_control.span_of_quanta ~bits_per_s:1e9 quanta in
  check_bool "frame eventually sent" true (!wire_at >= 0);
  check_bool "held for the pause span" true (!wire_at >= span);
  check_bool "pause time accounted" true (Nic.tx_paused_ns a >= span);
  check_int "pause frame counted" 1 (Nic.pause_frames_rx a);
  check_bool "resumed" true (not (Nic.is_tx_paused a));
  check_int "receiver got exactly the data frame" 1 (Nic.rx_pending b)

let test_nic_xon_resumes_early () =
  let sim, a, _b = nic_pause_rig () in
  let wire_at = ref (-1) in
  Process.spawn sim (fun () ->
      Nic.rx_from_wire a
        (Mac_control.pause ~src:(Mac.of_node 1)
           ~quanta:Mac_control.max_quanta);
      Nic.post_tx_blocking a
        { Nic.frame = raw ~src:0 ~dst:1 1000; needs_dma = true;
          internal_copy = false;
          on_complete = (fun () -> wire_at := Sim.now sim) });
  Process.spawn sim (fun () ->
      Process.delay (Time.us 20.);
      Nic.rx_from_wire a (Mac_control.xon ~src:(Mac.of_node 1)));
  Sim.run sim;
  let full = Mac_control.span_of_quanta ~bits_per_s:1e9 Mac_control.max_quanta in
  check_bool "sent" true (!wire_at >= 0);
  check_bool "resumed on XON, not expiry" true (!wire_at < full);
  check_bool "paused span recorded" true
    (Nic.tx_paused_ns a >= Time.us 15. && Nic.tx_paused_ns a < full)

let test_nic_without_pause_ignores_xoff () =
  let sim, a, b = nic_rig () in
  let wire_at = ref (-1) in
  Process.spawn sim (fun () ->
      Nic.rx_from_wire a
        (Mac_control.pause ~src:(Mac.of_node 1)
           ~quanta:Mac_control.max_quanta);
      Nic.post_tx_blocking a
        { Nic.frame = raw ~src:0 ~dst:1 1000; needs_dma = true;
          internal_copy = false;
          on_complete = (fun () -> wire_at := Sim.now sim) });
  Sim.run sim;
  let full = Mac_control.span_of_quanta ~bits_per_s:1e9 Mac_control.max_quanta in
  check_bool "legacy MAC transmits immediately" true
    (!wire_at >= 0 && !wire_at < full / 100);
  check_int "no pause accounting" 0 (Nic.tx_paused_ns a);
  check_bool "never paused" true (not (Nic.is_tx_paused a));
  (* the control frame is consumed by the MAC, never surfaced to the host *)
  check_int "control frame counted" 1 (Nic.pause_frames_rx a);
  check_int "control frame not in the rx ring" 0 (Nic.rx_pending a);
  check_int "data frame still delivered" 1 (Nic.rx_pending b)

(* ------------------------------------------------------------------ *)
(* Multi-hop fabrics: trunks, static ECMP routes, reverse-path flooding,
   and PAUSE propagating switch to switch *)

(* Stations on a buffered fabric also see PAUSE frames on their downlink;
   run [k] only for data. *)
let on_data f k = if Mac_control.quanta_of f = None then k ()

let two_switches ?buffer ?trunk_bits_per_s sim =
  let mk name = Switch.create sim ~name ~bits_per_s:1e9 ?buffer () in
  let a = mk "a" and b = mk "b" in
  Switch.add_trunk ?bits_per_s:trunk_bits_per_s a b;
  (a, b)

let test_switch_trunk_forwarding () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  Switch.add_port a ~node:0;
  Switch.add_port b ~node:1;
  Switch.set_route a ~dst:1 ~via:[ "b" ];
  Switch.set_route b ~dst:0 ~via:[ "a" ];
  let got = ref 0 in
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node b ~node:1 (fun f -> on_data f (fun () -> incr got));
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:1 500);
  Sim.run sim;
  check_int "delivered across the trunk" 1 !got;
  check_int "first hop forwarded" 1 (Switch.frames_forwarded a);
  check_int "trunk load counter" 1 (Switch.trunk_tx_frames a ~peer:"b");
  check_int "second hop forwarded" 1 (Switch.frames_forwarded b);
  Alcotest.(check (list string)) "peer visible" [ "b" ] (Switch.trunks a);
  Alcotest.(check (list int)) "stations exclude trunks" [ 0 ] (Switch.ports a)

let test_switch_trunk_validation () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  Alcotest.check_raises "self-trunk"
    (Invalid_argument "Switch.add_trunk: self-trunk") (fun () ->
      Switch.add_trunk a a);
  Alcotest.check_raises "duplicate trunk"
    (Invalid_argument "Switch.add_trunk: duplicate trunk a=>b") (fun () ->
      Switch.add_trunk a b);
  Alcotest.check_raises "route via a stranger"
    (Invalid_argument "Switch.set_route: a has no trunk to zz") (fun () ->
      Switch.set_route a ~dst:9 ~via:[ "zz" ]);
  (* an otherwise fully provisioned switch loses its zero-loss guarantee
     the moment a trunk appears: the proof does not compose across hops *)
  let p =
    Switch.create sim ~name:"p" ~bits_per_s:1e9 ~ingress_frames:6
      ~buffer:Switch.default_buffer ()
  in
  let q = Switch.create sim ~name:"q" ~bits_per_s:1e9 () in
  List.iter (fun n -> Switch.add_port p ~node:n) [ 0; 1; 2 ];
  check_bool "protected before trunking" true (Switch.protected_provisioning p);
  Switch.add_trunk p q;
  check_bool "trunk voids the proof" false (Switch.protected_provisioning p)

let test_switch_ecmp_spread () =
  let sim = Sim.create () in
  let mk name = Switch.create sim ~name ~bits_per_s:1e9 () in
  let a = mk "a" and b = mk "b" and c = mk "c" and d = mk "d" in
  Switch.add_trunk a b;
  Switch.add_trunk a c;
  Switch.add_trunk b d;
  Switch.add_trunk c d;
  for n = 0 to 7 do
    Switch.add_port a ~node:n;
    Switch.connect_node a ~node:n (fun _ -> ())
  done;
  Switch.add_port d ~node:9;
  let got = ref 0 in
  Switch.connect_node d ~node:9 (fun f -> on_data f (fun () -> incr got));
  Switch.set_route a ~dst:9 ~via:[ "b"; "c" ];
  Switch.set_route b ~dst:9 ~via:[ "d" ];
  Switch.set_route c ~dst:9 ~via:[ "d" ];
  for n = 0 to 7 do
    for _ = 1 to 4 do
      Link.send (Switch.uplink a ~node:n) (raw ~src:n ~dst:9 500)
    done
  done;
  Sim.run sim;
  check_int "all 32 delivered" 32 !got;
  let via_b = Switch.trunk_tx_frames a ~peer:"b"
  and via_c = Switch.trunk_tx_frames a ~peer:"c" in
  check_int "every frame took a trunk" 32 (via_b + via_c);
  check_bool
    (Printf.sprintf "both equal-cost paths carried load (%d/%d)" via_b via_c)
    true
    (via_b > 0 && via_c > 0);
  (* per-flow hashing: a flow never splits, so ECMP cannot reorder it *)
  check_bool "4-frame flows stay whole" true
    (via_b mod 4 = 0 && via_c mod 4 = 0)

let test_switch_trunk_pause_propagates () =
  let sim = Sim.create () in
  (* a 10 Gb/s trunk feeding 1 Gb/s stations: b's egress backlog charges
     the trunk ingress, so b must XOFF the upstream *switch*, not a
     station — the first hop of a congestion tree *)
  let buffer = shared_buffer ~high:8000 ~low:3000 () in
  let a, b = two_switches ~buffer ~trunk_bits_per_s:1e10 sim in
  Switch.add_port a ~node:0;
  Switch.add_port a ~node:1;
  Switch.add_port b ~node:2;
  Switch.set_route a ~dst:2 ~via:[ "b" ];
  let got = ref 0 in
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node a ~node:1 (fun _ -> ());
  Switch.connect_node b ~node:2 (fun f -> on_data f (fun () -> incr got));
  Process.spawn sim (fun () ->
      for _ = 1 to 12 do
        Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink a ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.run sim;
  check_int "everything delivered" 24 !got;
  check_bool "downstream switch XOFFed its upstream peer" true
    (Switch.pause_frames_tx b >= 2);
  check_bool "upstream switch heard it" true (Switch.pause_frames_rx a >= 2);
  check_bool "upstream trunk pump actually sat gated" true
    (Switch.egress_paused_ns a > 0);
  check_int "PAUSE kept the whole fabric lossless" 0
    (Switch.egress_drops a + Switch.ingress_drops a + Switch.egress_drops b
   + Switch.ingress_drops b);
  (* the XON re-armed the trunk: without it the quanta gate alone would
     have idled the trunk for milliseconds per XOFF *)
  check_bool "finished long before the quanta timeout" true
    (Sim.now sim < Time.ms 2.)

let test_switch_trunk_hol_blocking () =
  (* a congested flow XOFFs the trunk; an innocent flow to a different,
     idle station on the far switch shares the gated pump and stalls
     behind it — head-of-line blocking across hops *)
  let victim_arrival ~congested =
    let sim = Sim.create () in
    let buffer = shared_buffer ~high:8000 ~low:3000 () in
    let a, b = two_switches ~buffer ~trunk_bits_per_s:1e10 sim in
    List.iter
      (fun n ->
        Switch.add_port a ~node:n;
        Switch.connect_node a ~node:n (fun _ -> ()))
      [ 0; 1; 4 ];
    Switch.add_port b ~node:2;
    Switch.add_port b ~node:3;
    Switch.set_route a ~dst:2 ~via:[ "b" ];
    Switch.set_route a ~dst:3 ~via:[ "b" ];
    Switch.connect_node b ~node:2 (fun _ -> ());
    let at = ref 0 in
    Switch.connect_node b ~node:3 (fun f ->
        on_data f (fun () -> at := Sim.now sim));
    if congested then
      Process.spawn sim (fun () ->
          for _ = 1 to 40 do
            Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:2 1400);
            Link.send (Switch.uplink a ~node:4) (raw ~src:4 ~dst:2 1400)
          done);
    Sim.post sim ~after:(Time.us 200.) (fun () ->
        Link.send (Switch.uplink a ~node:1) (raw ~src:1 ~dst:3 200));
    Sim.run sim;
    !at
  in
  let clear = victim_arrival ~congested:false in
  let blocked = victim_arrival ~congested:true in
  check_bool "victim still delivered" true (blocked > 0);
  check_bool
    (Printf.sprintf "HOL victim stalled behind the congestion tree (%d vs %d)"
       blocked clear)
    true
    (blocked > clear + Time.us 30.)

let test_switch_set_down_drains () =
  let sim = Sim.create () in
  let sw =
    Switch.create sim ~name:"sw" ~bits_per_s:1e9 ~buffer:(shared_buffer ()) ()
  in
  List.iter (fun n -> Switch.add_port sw ~node:n) [ 0; 1; 2 ];
  let got = ref 0 in
  Switch.connect_node sw ~node:0 (fun _ -> ());
  Switch.connect_node sw ~node:1 (fun _ -> ());
  Switch.connect_node sw ~node:2 (fun f -> on_data f (fun () -> incr got));
  Process.spawn sim (fun () ->
      for _ = 1 to 10 do
        Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:2 1400);
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 1400)
      done);
  Sim.post sim ~after:(Time.us 40.) (fun () ->
      check_bool "mid-burst the buffer is charged" true
        (Switch.buffer_occupied sw > 0);
      Switch.set_down sw true;
      check_bool "down" true (Switch.is_down sw);
      (* the FIFO backlog's charges are released on the spot; only the one
         frame already mid-serialization may still hold its charge *)
      check_bool "queued frames released their ledger charges" true
        (Switch.buffer_occupied sw <= 1518 + 18);
      Switch.set_down sw true (* idempotent *));
  Sim.post sim ~after:(Time.us 100.) (fun () ->
      check_int "once the wire drains the ledger is empty" 0
        (Switch.buffer_occupied sw));
  let down_mark = ref (-1) in
  Sim.post sim ~after:(Time.us 400.) (fun () ->
      down_mark := !got;
      Switch.set_down sw false;
      for _ = 1 to 3 do
        Link.send (Switch.uplink sw ~node:1) (raw ~src:1 ~dst:2 500)
      done);
  Sim.run sim;
  check_bool "frames were refused while down" true (Switch.down_drops sw > 0);
  check_bool "power-up is visible" false (Switch.is_down sw);
  check_int "revived switch forwards again" (!down_mark + 3) !got

(* Forwarding-table edge cases: a station port wins over a route, an
   emptied route set or an id beyond every table is unroutable, and a
   flood skips only the port it came in on. *)

let test_switch_route_removed () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  Switch.add_port a ~node:0;
  Switch.add_port b ~node:1;
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node b ~node:1 (fun _ -> ());
  Switch.set_route a ~dst:1 ~via:[ "b" ];
  Switch.set_route a ~dst:1 ~via:[];
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:1 500);
  Sim.run sim;
  check_int "unroutable once its route is gone" 1 (Switch.frames_unroutable a);
  check_int "nothing crossed the trunk" 0 (Switch.trunk_tx_frames a ~peer:"b");
  Alcotest.check_raises "a negative node has no route"
    (Invalid_argument "Switch.set_route: negative node") (fun () ->
      Switch.set_route a ~dst:(-1) ~via:[ "b" ])

let test_switch_station_beats_route () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  Switch.add_port a ~node:0;
  Switch.add_port a ~node:2;
  Switch.add_port b ~node:1;
  let got = ref 0 in
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node a ~node:2 (fun _ -> incr got);
  Switch.connect_node b ~node:1 (fun _ -> ());
  Switch.set_route a ~dst:2 ~via:[ "b" ];
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:2 500);
  Sim.run sim;
  check_int "delivered to the local station" 1 !got;
  check_int "the route did not divert it" 0
    (Switch.trunk_tx_frames a ~peer:"b")

let test_switch_clear_routes_keeps_stations () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  Switch.add_port a ~node:0;
  Switch.add_port a ~node:2;
  Switch.add_port b ~node:1;
  let got = ref 0 in
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node a ~node:2 (fun _ -> incr got);
  Switch.connect_node b ~node:1 (fun _ -> ());
  Switch.set_route a ~dst:1 ~via:[ "b" ];
  Switch.clear_routes a;
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:2 500);
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:1 500);
  Sim.run sim;
  check_int "the station still gets its frame" 1 !got;
  check_int "the routed node is unroutable" 1 (Switch.frames_unroutable a);
  check_int "nothing crossed the trunk" 0 (Switch.trunk_tx_frames a ~peer:"b")

let test_switch_destination_beyond_tables () =
  let sim = Sim.create () in
  let a, _b = two_switches sim in
  Switch.add_port a ~node:0;
  Switch.add_port a ~node:1;
  Switch.connect_node a ~node:0 (fun _ -> ());
  Switch.connect_node a ~node:1 (fun _ -> ());
  Switch.set_route a ~dst:5 ~via:[ "b" ];
  Link.send (Switch.uplink a ~node:0) (raw ~src:0 ~dst:1000 500);
  Sim.run sim;
  check_int "unroutable" 1 (Switch.frames_unroutable a);
  check_int "not forwarded" 0 (Switch.frames_forwarded a);
  check_int "nothing crossed the trunk" 0 (Switch.trunk_tx_frames a ~peer:"b")

let test_switch_flood_skips_ingress_only () =
  let sim = Sim.create () in
  let a, b = two_switches sim in
  let got = Array.make 4 0 in
  let attach sw n =
    Switch.add_port sw ~node:n;
    Switch.connect_node sw ~node:n (fun _ -> got.(n) <- got.(n) + 1)
  in
  List.iter (attach a) [ 0; 1; 2 ];
  attach b 3;
  (* b floods what comes over the trunk only because a is its way back to
     the sender *)
  Switch.set_route b ~dst:1 ~via:[ "a" ];
  let bcast =
    Eth_frame.make ~src:(Mac.of_node 1) ~dst:Mac.broadcast ~ethertype:0x88
      ~payload_bytes:100 (Eth_frame.Raw 100)
  in
  Link.send (Switch.uplink a ~node:1) bcast;
  Sim.run sim;
  Alcotest.(check (array int)) "everyone but the sender" [| 1; 0; 1; 1 |] got;
  check_int "a copied it to two stations and the trunk" 3
    (Switch.frames_flooded a);
  check_int "b copied it to its station, not back up the trunk" 1
    (Switch.frames_flooded b)

(* ------------------------------------------------------------------ *)
(* Gray failures: fail-slow without failing *)

let test_fault_brownout_slows_without_dropping () =
  let fault =
    Fault.brownout ~fraction:0.5 ~from_:(Time.us 10.) ~until_:(Time.us 20.)
  in
  (* outside the window: untouched *)
  (match Fault.frame fault ~now:0 ~ser:1000 with
  | [ { Fault.delay = 0; corrupt = false } ] -> ()
  | _ -> Alcotest.fail "expected a clean copy before the window");
  (* inside the window at fraction 0.5 a 1000 ns frame pays 1000 ns extra,
     and a second back-to-back frame queues behind the first's virtual
     residency — FIFO is preserved, nothing is dropped *)
  (match Fault.frame fault ~now:(Time.us 10.) ~ser:1000 with
  | [ { Fault.delay = 1000; corrupt = false } ] -> ()
  | _ -> Alcotest.fail "expected 1000 ns sag on first frame");
  (match Fault.frame fault ~now:(Time.us 10.) ~ser:1000 with
  | [ { Fault.delay = 2000; corrupt = false } ] -> ()
  | _ -> Alcotest.fail "expected queued 2000 ns sag on second frame");
  check_int "slowed frames counted" 2 (Fault.slowed fault);
  check_int "sag nanoseconds counted" 3000 (Fault.slow_ns fault);
  check_int "a brownout never drops" 0 (Fault.drops fault);
  (* after the window: clean again *)
  match Fault.frame fault ~now:(Time.us 30.) ~ser:1000 with
  | [ { Fault.delay = 0; corrupt = false } ] -> ()
  | _ -> Alcotest.fail "expected a clean copy after the window"

let test_fault_brownout_validation () =
  Alcotest.check_raises "fraction zero"
    (Invalid_argument "Fault.brownout: fraction outside (0,1]") (fun () ->
      ignore (Fault.brownout ~fraction:0. ~from_:0 ~until_:(Time.us 1.)));
  Alcotest.check_raises "fraction above one"
    (Invalid_argument "Fault.brownout: fraction outside (0,1]") (fun () ->
      ignore (Fault.brownout ~fraction:1.5 ~from_:0 ~until_:(Time.us 1.)));
  Alcotest.check_raises "empty window"
    (Invalid_argument "Fault.brownout: empty or negative window") (fun () ->
      ignore
        (Fault.brownout ~fraction:0.5 ~from_:(Time.us 2.) ~until_:(Time.us 2.)))

let test_nic_slow_factor_inflates_service () =
  let sim, a, b = nic_rig ~coalesce:Nic.no_coalesce () in
  check_bool "factor starts at 1" true (Nic.slow_factor a = 1.0);
  check_int "no inflation before the knob turns" 0 (Nic.slow_extra_ns a);
  Nic.set_slow_factor a 3.0;
  post sim a (raw ~src:0 ~dst:1 1000);
  Sim.run sim;
  check_int "frame still delivered" 1 (Nic.rx_pending b);
  check_bool "inflated service time accounted" true (Nic.slow_extra_ns a > 0);
  let inflated = Nic.slow_extra_ns a in
  (* back to healthy: the multiplier path is an exact no-op at 1.0 *)
  Nic.set_slow_factor a 1.0;
  post sim a (raw ~src:0 ~dst:1 1000);
  Sim.run sim;
  check_int "no further inflation at factor 1" inflated (Nic.slow_extra_ns a);
  Alcotest.check_raises "factor below one"
    (Invalid_argument "Nic.set_slow_factor: factor < 1") (fun () ->
      Nic.set_slow_factor a 0.5)

let test_switch_egress_stall_delays_pump () =
  let sim = Sim.create () in
  let sw = make_switch sim [ 0; 1 ] in
  let arrivals = ref [] in
  Switch.connect_node sw ~node:1 (fun _ ->
      arrivals := Sim.now sim :: !arrivals);
  (* stall node 1's egress for 50 us, then inject a frame; the pump must
     hold the frame until the stall clears *)
  Switch.inject_stall sw ~node:1 ~span:(Time.us 50.);
  Sim.post sim ~after:0 (fun () ->
      Link.send (Switch.uplink sw ~node:0) (raw ~src:0 ~dst:1 500));
  Sim.run sim;
  (match !arrivals with
  | [ t ] -> check_bool "held until the stall cleared" true (t >= Time.us 50.)
  | _ -> Alcotest.fail "expected exactly one delivery");
  check_int "stall counted" 1 (Switch.egress_stalls sw);
  check_bool "stall span accounted" true
    (Switch.egress_stall_ns sw >= Time.us 50.);
  check_int "nothing dropped" 0 (Switch.egress_drops sw);
  Alcotest.check_raises "non-positive span"
    (Invalid_argument "Switch.inject_stall: span <= 0") (fun () ->
      Switch.inject_stall sw ~node:1 ~span:0);
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Switch: unknown node 9") (fun () ->
      Switch.inject_stall sw ~node:9 ~span:(Time.us 1.))

(* ------------------------------------------------------------------ *)
(* Ring: the fabric's FIFO *)

(* Pushes and pops against [Stdlib.Queue]; pushes outnumber pops, so a run
   grows the ring several times and wraps it around in between. *)
let prop_ring_is_a_fifo =
  QCheck.Test.make ~count:300 ~name:"ring: FIFO like Stdlib.Queue"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 600)
           (frequency [ (3, map Option.some nat); (2, return None) ])))
    (fun ops ->
      let ring = Ring.create (-1) and queue = Queue.create () in
      List.for_all
        (fun op ->
          let same_pop =
            match op with
            | Some x ->
                Ring.push ring x;
                Queue.add x queue;
                true
            | None when Queue.is_empty queue -> true
            | None -> Ring.pop ring = Queue.take queue
          in
          same_pop
          && Ring.length ring = Queue.length queue
          && Ring.is_empty ring = Queue.is_empty queue)
        ops)

let test_ring_pop_empty () =
  let ring = Ring.create 0 in
  Alcotest.check_raises "a fresh ring"
    (Invalid_argument "Ring.pop: empty ring") (fun () ->
      ignore (Ring.pop ring));
  Ring.push ring 1;
  check_int "the one element" 1 (Ring.pop ring);
  Alcotest.check_raises "a drained ring"
    (Invalid_argument "Ring.pop: empty ring") (fun () ->
      ignore (Ring.pop ring))

(* Pushes a block only [seen] points to, then pops and drops it. *)
let[@inline never] push_then_drop ring seen =
  let block = Bytes.make 64 'x' in
  Weak.set seen 0 (Some block);
  Ring.push ring block;
  ignore (Sys.opaque_identity (Ring.pop ring))

let test_ring_pop_releases () =
  let ring = Ring.create Bytes.empty and seen = Weak.create 1 in
  push_then_drop ring seen;
  Gc.full_major ();
  check_bool "the ring no longer holds the popped block" false
    (Weak.check seen 0);
  check_bool "the ring is still in use" true (Ring.is_empty ring)

(* ------------------------------------------------------------------ *)
(* Fabric allocation budget: exact [Gc.minor_words] over 10^5 frames built
   before the count starts.  The link and the switch allocate nothing per
   frame; with a sink installed, a frame pays for the probe events it
   emits and nothing else. *)

let budget_frames = 100_000

let words_per_frame f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int budget_frames

(* Station -> switch -> trunk -> switch -> station behind
   [Switch.default_buffer]. *)
let two_switch_words frames =
  let sim = Sim.create () in
  let a, b = two_switches ~buffer:Switch.default_buffer sim in
  Switch.add_port a ~node:0;
  Switch.add_port b ~node:1;
  Switch.set_route a ~dst:1 ~via:[ "b" ];
  Switch.connect_node a ~node:0 (fun _ -> ());
  let got = ref 0 in
  Switch.connect_node b ~node:1 (fun f ->
      if not (Mac_control.is_mac_control f) then incr got);
  let send = Link.send (Switch.uplink a ~node:0) in
  let words =
    words_per_frame (fun () ->
        Array.iter send frames;
        Sim.run sim)
  in
  check_int "every frame crossed both switches" budget_frames !got;
  words

let test_fabric_allocation_budget () =
  let frames = Array.init budget_frames (fun _ -> raw ~src:0 ~dst:1 1500) in
  let sim = Sim.create () in
  let link = Link.create sim ~name:"l" ~bits_per_s:1e9 () in
  let got = ref 0 in
  Link.connect link (fun _ -> incr got);
  let send = Link.send link in
  let words =
    words_per_frame (fun () ->
        Array.iter send frames;
        Sim.run sim)
  in
  check_int "every frame crossed the busy link" budget_frames !got;
  if words > 1. then
    Alcotest.failf "busy link: %.2f minor words per frame, budget 1" words;
  let words = two_switch_words frames in
  if words > 1. then
    Alcotest.failf
      "station -> switch -> trunk -> switch -> station: %.2f minor words \
       per frame, budget 1"
      words;
  Probe.install ignore;
  let words =
    Fun.protect ~finally:Probe.uninstall (fun () -> two_switch_words frames)
  in
  if words > 100. then
    Alcotest.failf
      "the two-switch path with probes on: %.2f minor words per frame, \
       budget 100"
      words

let qprops =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fragmentation_counts; prop_ring_is_a_fifo ]

let suite =
  [
    ("frame sizes", `Quick, test_frame_sizes);
    ("mac addresses", `Quick, test_mac);
    ("link serialization time", `Quick, test_link_serialization_time);
    ("link delivery fifo", `Quick, test_link_delivery_and_fifo);
    ("link pipelining", `Quick, test_link_back_to_back_pipelining);
    ("link fault injection", `Quick, test_link_fault_injection);
    ("fault duplication", `Quick, test_fault_duplicate_copies);
    ("fault gilbert-elliott", `Quick, test_fault_gilbert_elliott_bursts);
    ("fault link flap", `Quick, test_fault_flap_windows);
    ("fault jitter reorders", `Quick, test_fault_jitter_reorders);
    ("fault compose", `Quick, test_fault_compose_stages);
    ("fault corruption", `Quick, test_fault_corruption_flags_copies);
    ("link without receiver", `Quick, test_link_no_receiver_drops);
    ("switch unicast", `Quick, test_switch_unicast);
    ("switch broadcast", `Quick, test_switch_broadcast_floods);
    ("switch unroutable", `Quick, test_switch_unknown_destination);
    ("switch duplicate port", `Quick, test_switch_duplicate_port);
    ("pci peak rate", `Quick, test_pci_peak);
    ("dma dual-bus occupancy", `Quick, test_dma_occupies_both_buses);
    ("dma zero bytes", `Quick, test_dma_zero_bytes);
    ("nic tx/rx roundtrip", `Quick, test_nic_tx_rx_roundtrip);
    ("nic irq masking", `Quick, test_nic_irq_masking);
    ("nic unmask refires", `Quick, test_nic_unmask_refires_when_pending);
    ("nic coalescing by count", `Quick, test_nic_coalescing_count);
    ("nic coalescing quiet timer", `Quick, test_nic_coalescing_quiet_timer);
    ("nic rx ring overflow", `Quick, test_nic_rx_ring_overflow);
    ("nic bad fcs drop", `Quick, test_nic_bad_fcs_drops_at_mac);
    ("nic power-off mid-dma", `Quick, test_nic_power_off_mid_dma);
    ("nic tx ring full", `Quick, test_nic_tx_ring_full);
    ("nic mtu enforced", `Quick, test_nic_mtu_enforced);
    ("nic fragmentation roundtrip", `Quick, test_nic_fragmentation_roundtrip);
    ("nic coalescing absolute cap", `Quick, test_nic_coalescing_absolute_cap);
    ("nic tx ring accounting", `Quick, test_nic_tx_ring_accounting);
    ("switch multicast group", `Quick, test_switch_multicast_group);
    ("link queue depth", `Quick, test_link_queue_depth_visible);
    ("mac control roundtrip", `Quick, test_mac_control_roundtrip);
    ("mac control frame shape", `Quick, test_mac_control_frame_shape);
    ("switch counter regression", `Quick, test_switch_counter_regression);
    ("switch ingress bound", `Quick, test_switch_ingress_bound);
    ("switch egress tail-drop", `Quick, test_switch_egress_cap_tail_drop);
    ("switch buffer ledger", `Quick, test_switch_buffer_ledger_balances);
    ("switch buffer exhaustion", `Quick, test_switch_buffer_exhaustion_drops);
    ("switch xoff/xon cycle", `Quick, test_switch_xoff_xon_cycle);
    ("switch honors station pause", `Quick, test_switch_honors_station_pause);
    ("switch xon resumes early", `Quick, test_switch_xon_resumes_early);
    ("switch protected provisioning", `Quick,
      test_switch_protected_provisioning);
    ("nic pause gates tx", `Quick, test_nic_pause_gates_tx);
    ("nic xon resumes early", `Quick, test_nic_xon_resumes_early);
    ("nic legacy ignores xoff", `Quick, test_nic_without_pause_ignores_xoff);
    ("switch trunk forwarding", `Quick, test_switch_trunk_forwarding);
    ("switch trunk validation", `Quick, test_switch_trunk_validation);
    ("switch ecmp spread", `Quick, test_switch_ecmp_spread);
    ("switch trunk pause propagates", `Quick,
      test_switch_trunk_pause_propagates);
    ("switch trunk hol blocking", `Quick, test_switch_trunk_hol_blocking);
    ("switch set_down drains", `Quick, test_switch_set_down_drains);
    ("switch route removed", `Quick, test_switch_route_removed);
    ("switch station beats route", `Quick, test_switch_station_beats_route);
    ("switch clear_routes keeps stations", `Quick,
      test_switch_clear_routes_keeps_stations);
    ("switch destination beyond tables", `Quick,
      test_switch_destination_beyond_tables);
    ("switch flood skips ingress only", `Quick,
      test_switch_flood_skips_ingress_only);
    ("fault brownout fail-slow", `Quick,
      test_fault_brownout_slows_without_dropping);
    ("fault brownout validation", `Quick, test_fault_brownout_validation);
    ("nic slow factor", `Quick, test_nic_slow_factor_inflates_service);
    ("switch egress stall", `Quick, test_switch_egress_stall_delays_pump);
    ("ring pop on empty", `Quick, test_ring_pop_empty);
    ("ring pop releases its cell", `Quick, test_ring_pop_releases);
    ("fabric allocation budget", `Quick, test_fabric_allocation_budget);
  ]
  @ qprops
