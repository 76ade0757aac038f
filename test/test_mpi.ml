(* Tests for the messaging layers: MPI matching and protocols over both
   transports, PVM daemon routing, and the broadcast collectives. *)

open Engine
open Cluster
open Mpi_layer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let clic_world c ranks =
  let reg = Mpi_clic.registry () in
  List.map
    (fun rank ->
      let node = Net.node c rank in
      Mpi.create node.Node.env ~rank
        (Mpi_clic.transport reg node.Node.clic ~rank))
    ranks

let tcp_world c ranks =
  let reg = Mpi_tcp.registry () in
  List.map
    (fun rank ->
      let node = Net.node c rank in
      Mpi.create node.Node.env ~rank
        (Mpi_tcp.transport reg node.Node.tcp ~rank))
    ranks

let both_transports = [ ("clic", clic_world); ("tcp", tcp_world) ]

let roundtrip_test world_of () =
  let c = Net.create ~n:2 () in
  match world_of c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let got = ref None in
      Node.spawn (Net.node c 1) (fun () ->
          let e = Mpi.recv m1 () in
          got := Some (e.Mpi.e_src, e.Mpi.e_tag, e.Mpi.e_bytes));
      Node.spawn (Net.node c 0) (fun () -> Mpi.send m0 ~dst:1 ~tag:42 5000);
      Net.run c;
      Alcotest.(check (option (triple int int int)))
        "envelope" (Some (0, 42, 5000)) !got
  | _ -> assert false

let rendezvous_test world_of () =
  let c = Net.create ~n:2 () in
  match world_of c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let got = ref 0 in
      Node.spawn (Net.node c 1) (fun () ->
          got := (Mpi.recv m1 ()).Mpi.e_bytes);
      Node.spawn (Net.node c 0) (fun () ->
          (* over the 16 KiB eager threshold: RTS/CTS protocol *)
          Mpi.send m0 ~dst:1 ~tag:1 250_000);
      Net.run c;
      check_int "rendezvous payload" 250_000 !got
  | _ -> assert false

let test_mpi_tag_matching () =
  let c = Net.create ~n:2 () in
  match clic_world c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let order = ref [] in
      Node.spawn (Net.node c 1) (fun () ->
          (* Receive tag 2 first even though tag 1 arrived first. *)
          let a = Mpi.recv m1 ~tag:2 () in
          let b = Mpi.recv m1 ~tag:1 () in
          order := [ a.Mpi.e_tag; b.Mpi.e_tag ]);
      Node.spawn (Net.node c 0) (fun () ->
          Mpi.send m0 ~dst:1 ~tag:1 100;
          Mpi.send m0 ~dst:1 ~tag:2 200);
      Net.run c;
      Alcotest.(check (list int)) "selective receive" [ 2; 1 ] !order
  | _ -> assert false

let test_mpi_fifo_per_matching () =
  let c = Net.create ~n:2 () in
  match clic_world c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let sizes = ref [] in
      Node.spawn (Net.node c 1) (fun () ->
          for _ = 1 to 3 do
            sizes := (Mpi.recv m1 ~tag:7 ()).Mpi.e_bytes :: !sizes
          done);
      Node.spawn (Net.node c 0) (fun () ->
          List.iter (fun n -> Mpi.send m0 ~dst:1 ~tag:7 n) [ 10; 20; 30 ]);
      Net.run c;
      Alcotest.(check (list int)) "fifo among same tag" [ 10; 20; 30 ]
        (List.rev !sizes)
  | _ -> assert false

let test_mpi_wildcard_and_iprobe () =
  let c = Net.create ~n:3 () in
  match clic_world c [ 0; 1; 2 ] with
  | [ m0; m1; m2 ] ->
      let seen = ref [] in
      Node.spawn (Net.node c 2) (fun () ->
          let a = Mpi.recv m2 ~src:1 () in
          let b = Mpi.recv m2 () in
          seen := [ a.Mpi.e_src; b.Mpi.e_src ]);
      Node.spawn (Net.node c 0) (fun () -> Mpi.send m0 ~dst:2 ~tag:1 50);
      Node.spawn (Net.node c 1) (fun () ->
          Process.delay (Time.us 300.);
          Mpi.send m1 ~dst:2 ~tag:1 60);
      Net.run c;
      Alcotest.(check (list int)) "selective then wildcard" [ 1; 0 ] !seen
  | _ -> assert false

let test_mpi_unexpected_messages_buffered () =
  let c = Net.create ~n:2 () in
  match clic_world c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let got = ref 0 in
      Node.spawn (Net.node c 0) (fun () -> Mpi.send m0 ~dst:1 ~tag:9 4000);
      Node.spawn (Net.node c 1) (fun () ->
          (* receive long after arrival *)
          Process.delay (Time.ms 5.);
          check_int "queued as unexpected" 1 (Mpi.unexpected_queued m1);
          got := (Mpi.recv m1 ()).Mpi.e_bytes);
      Net.run c;
      check_int "delivered from unexpected queue" 4000 !got
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* PVM *)

let pvm_pair () =
  let c = Net.create ~n:2 () in
  let mk i =
    let node = Net.node c i in
    Pvm.create node.Node.env node.Node.udp
  in
  (c, mk 0, mk 1)

let test_pvm_roundtrip () =
  let c, p0, p1 = pvm_pair () in
  let got = ref None in
  Node.spawn (Net.node c 1) (fun () ->
      got := Some (Pvm.recv p1 ()));
  Node.spawn (Net.node c 0) (fun () -> Pvm.send p0 ~dst:1 ~tag:3 9000);
  Net.run c;
  Alcotest.(check (option (triple int int int)))
    "routed through daemons" (Some (0, 3, 9000)) !got;
  check_bool "daemons did work" true (Pvm.messages_routed p1 >= 1)

let test_pvm_tag_matching () =
  let c, p0, p1 = pvm_pair () in
  let order = ref [] in
  Node.spawn (Net.node c 1) (fun () ->
      let _, t1, _ = Pvm.recv p1 ~tag:2 () in
      let _, t2, _ = Pvm.recv p1 ~tag:1 () in
      order := [ t1; t2 ]);
  Node.spawn (Net.node c 0) (fun () ->
      Pvm.send p0 ~dst:1 ~tag:1 100;
      Pvm.send p0 ~dst:1 ~tag:2 100);
  Net.run c;
  Alcotest.(check (list int)) "tag matching" [ 2; 1 ] !order

let test_pvm_fragments_large_messages () =
  let c, p0, p1 = pvm_pair () in
  let got = ref 0 in
  Node.spawn (Net.node c 1) (fun () ->
      let _, _, n = Pvm.recv p1 () in
      got := n);
  Node.spawn (Net.node c 0) (fun () -> Pvm.send p0 ~dst:1 ~tag:1 50_000);
  Net.run c;
  check_int "reassembled" 50_000 !got;
  (* 50000 / 4080 = 13 fragments, each a UDP datagram *)
  check_bool "daemon fragments" true
    (Proto.Udp.datagrams_sent (Net.node c 0).Node.udp >= 13)

(* An acknowledged fragment's retransmit timer is cancelled: the run ends
   at the delivery (2.256 ms), not 100 ms after the last fragment left,
   when the last of the 13 fragments' timers would fire as a no-op. *)
let test_pvm_run_ends_at_delivery () =
  let c, p0, p1 = pvm_pair () in
  let delivered = ref Time.zero in
  Node.spawn (Net.node c 1) (fun () ->
      ignore (Pvm.recv p1 ());
      delivered := Sim.now c.Net.sim);
  Node.spawn (Net.node c 0) (fun () -> Pvm.send p0 ~dst:1 ~tag:1 50_000);
  Net.run c;
  check_bool "delivered" true (!delivered > Time.zero);
  check_int "the clock stops at the delivery" !delivered (Sim.now c.Net.sim)

(* ------------------------------------------------------------------ *)
(* Collectives *)

let test_mpi_binomial_bcast () =
  let n = 7 in
  let c = Net.create ~n () in
  let world = tcp_world c (List.init n (fun i -> i)) in
  let received = Array.make n false in
  received.(2) <- false;
  List.iteri
    (fun rank mpi ->
      Node.spawn (Net.node c rank) (fun () ->
          Collectives.mpi_bcast mpi ~rank ~root:2 ~size:n 10_000;
          received.(rank) <- true))
    world;
  Net.run c;
  Alcotest.(check (array bool)) "all ranks finished"
    (Array.make n true) received

let test_clic_bcast_with_confirms () =
  let n = 5 in
  let c = Net.create ~n () in
  let port = 33 in
  let done_at = ref 0 in
  let peers = List.init (n - 1) (fun i -> i + 1) in
  List.iter
    (fun peer ->
      Node.spawn (Net.node c peer) (fun () ->
          Collectives.clic_bcast_peer (Net.node c peer).Node.clic ~root:0
            ~port))
    peers;
  Node.spawn (Net.node c 0) (fun () ->
      Collectives.clic_bcast_root (Net.node c 0).Node.clic ~peers ~port
        20_000;
      done_at := Sim.now c.Net.sim);
  Net.run c;
  check_bool "root saw all confirmations" true (!done_at > 0)

let test_mpi_isend_irecv () =
  let c = Net.create ~n:2 () in
  match clic_world c [ 0; 1 ] with
  | [ m0; m1 ] ->
      let got = ref [] in
      Node.spawn (Net.node c 1) (fun () ->
          (* post both receives before anything arrives *)
          let r1 = Mpi.irecv m1 ~tag:1 () in
          let r2 = Mpi.irecv m1 ~tag:2 () in
          got := (Mpi.wait r2).Mpi.e_tag :: !got;
          got := (Mpi.wait r1).Mpi.e_tag :: !got);
      Node.spawn (Net.node c 0) (fun () ->
          Mpi.send m0 ~dst:1 ~tag:1 3000;
          Mpi.send m0 ~dst:1 ~tag:2 3000);
      Net.run c;
      Alcotest.(check (list int)) "both matched out of order" [ 1; 2 ] !got
  | _ -> assert false

let run_on_all c world f =
  List.iteri (fun rank mpi -> Node.spawn (Net.node c rank) (fun () -> f rank mpi)) world

let test_collective_gather () =
  let n = 4 in
  let c = Net.create ~n () in
  let world = tcp_world c (List.init n (fun i -> i)) in
  let done_ = ref 0 in
  run_on_all c world (fun rank mpi ->
      Collectives.gather mpi ~rank ~root:2 ~size:n 5000;
      incr done_);
  Net.run c;
  check_int "all ranks completed" n !done_

let test_collective_allreduce () =
  let n = 4 in
  let c = Net.create ~n () in
  let world = clic_world c (List.init n (fun i -> i)) in
  let done_ = ref 0 in
  run_on_all c world (fun rank mpi ->
      Collectives.allreduce mpi ~rank ~size:n 65536;
      incr done_);
  Net.run c;
  check_int "all ranks completed" n !done_;
  (* ring allreduce: each rank sends 2(n-1) chunks *)
  List.iter
    (fun mpi -> check_int "2(n-1) sends per rank" (2 * (n - 1)) (Mpi.sends mpi))
    world

(* ------------------------------------------------------------------ *)
(* Collective message-count formulas, checked at several world sizes.
   Payloads stay under the eager threshold so [Mpi.sends] counts exactly
   one wire transaction per send call. *)

let world_ranks n = List.init n (fun i -> i)
let total_sends world = List.fold_left (fun acc m -> acc + Mpi.sends m) 0 world

let test_bcast_message_count () =
  List.iter
    (fun n ->
      let c = Net.create ~n () in
      let world = clic_world c (world_ranks n) in
      run_on_all c world (fun rank mpi ->
          Collectives.mpi_bcast mpi ~rank ~root:1 ~size:n 4096);
      Net.run c;
      check_int
        (Printf.sprintf "binomial tree, n=%d: size-1 messages total" n)
        (n - 1) (total_sends world))
    [ 2; 3; 5; 8 ]

let test_gather_message_count () =
  List.iter
    (fun n ->
      let c = Net.create ~n () in
      let world = tcp_world c (world_ranks n) in
      run_on_all c world (fun rank mpi ->
          Collectives.gather mpi ~rank ~root:0 ~size:n 5000);
      Net.run c;
      List.iteri
        (fun rank mpi ->
          check_int
            (Printf.sprintf "linear gather, n=%d: sends of rank %d" n rank)
            (if rank = 0 then 0 else 1)
            (Mpi.sends mpi))
        world;
      check_int
        (Printf.sprintf "linear gather, n=%d: root receives size-1" n)
        (n - 1)
        (Mpi.receives (List.hd world)))
    [ 2; 4; 6 ]

let test_allreduce_message_count () =
  List.iter
    (fun n ->
      let c = Net.create ~n () in
      let world = clic_world c (world_ranks n) in
      run_on_all c world (fun rank mpi ->
          Collectives.allreduce mpi ~rank ~size:n 8192);
      Net.run c;
      List.iter
        (fun mpi ->
          check_int
            (Printf.sprintf "ring, n=%d: 2(n-1) sends/rank" n)
            (2 * (n - 1))
            (Mpi.sends mpi);
          check_int
            (Printf.sprintf "ring, n=%d: 2(n-1) recvs/rank" n)
            (2 * (n - 1))
            (Mpi.receives mpi))
        world)
    [ 2; 3; 5 ]

(* Collectives under injected loss: the reliable channel underneath must
   absorb the drops.  The fault thunks are stashed so the test can prove
   frames really were discarded. *)

let lossy_config mk =
  let faults = ref [] in
  let config =
    {
      Node.default_config with
      link_fault =
        Some
          (fun () ->
            let f = mk () in
            faults := f :: !faults;
            f);
    }
  in
  (config, faults)

let injected faults =
  List.fold_left (fun acc f -> acc + Hw.Fault.drops f) 0 !faults

let test_mpi_bcast_under_loss () =
  let n = 5 in
  let config, faults =
    lossy_config (fun () -> Hw.Fault.drop ~rng:(Rng.create ~seed:11) ~prob:0.05)
  in
  let c = Net.create ~config ~n () in
  let world = clic_world c (world_ranks n) in
  let done_ = ref 0 in
  run_on_all c world (fun rank mpi ->
      Collectives.mpi_bcast mpi ~rank ~root:0 ~size:n 40_000;
      incr done_);
  Net.run c;
  check_int "all ranks complete under loss" n !done_;
  check_bool "loss was actually injected" true (injected faults > 0)

let test_clic_bcast_under_loss () =
  (* The broadcast data frame itself is unreliable Ethernet multicast and
     is always the first frame on each link here; drop-every-2nd loses
     only confirmations and acknowledgements, which the sequenced channel
     retransmits. *)
  let n = 5 in
  let config, faults = lossy_config (fun () -> Hw.Fault.drop_nth ~every:2) in
  let c = Net.create ~config ~n () in
  let port = 34 in
  let done_at = ref 0 in
  let peers = List.init (n - 1) (fun i -> i + 1) in
  List.iter
    (fun peer ->
      Node.spawn (Net.node c peer) (fun () ->
          Collectives.clic_bcast_peer (Net.node c peer).Node.clic ~root:0 ~port))
    peers;
  Node.spawn (Net.node c 0) (fun () ->
      Collectives.clic_bcast_root (Net.node c 0).Node.clic ~peers ~port 1_000;
      done_at := Sim.now c.Net.sim);
  Net.run c;
  check_bool "root saw all confirmations despite loss" true (!done_at > 0);
  check_bool "loss was actually injected" true (injected faults > 0)

let suite =
  List.concat_map
    (fun (name, world_of) ->
      [
        (name ^ " roundtrip", `Quick, roundtrip_test world_of);
        (name ^ " rendezvous", `Quick, rendezvous_test world_of);
      ])
    both_transports
  @ [
      ("tag matching", `Quick, test_mpi_tag_matching);
      ("fifo per tag", `Quick, test_mpi_fifo_per_matching);
      ("wildcard + iprobe", `Quick, test_mpi_wildcard_and_iprobe);
      ("unexpected queue", `Quick, test_mpi_unexpected_messages_buffered);
      ("pvm roundtrip", `Quick, test_pvm_roundtrip);
      ("pvm tags", `Quick, test_pvm_tag_matching);
      ("pvm fragmentation", `Quick, test_pvm_fragments_large_messages);
      ("pvm run ends at the delivery", `Quick, test_pvm_run_ends_at_delivery);
      ("mpi binomial bcast", `Quick, test_mpi_binomial_bcast);
      ("clic bcast confirms", `Quick, test_clic_bcast_with_confirms);
      ("isend/irecv", `Quick, test_mpi_isend_irecv);
      ("gather", `Quick, test_collective_gather);
      ("allreduce", `Quick, test_collective_allreduce);
      ("bcast message count", `Quick, test_bcast_message_count);
      ("gather message count", `Quick, test_gather_message_count);
      ("allreduce message count", `Quick, test_allreduce_message_count);
      ("mpi bcast under loss", `Quick, test_mpi_bcast_under_loss);
      ("clic bcast under loss", `Quick, test_clic_bcast_under_loss);
    ]
