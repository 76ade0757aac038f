(* Quickstart: build a two-node Gigabit Ethernet cluster, exchange a few
   CLIC messages, and print the numbers the paper leads with.

   Run with:  dune exec examples/quickstart.exe *)

open Cluster
open Engine

let () =
  (* A cluster is n identical PCs on a switched Gigabit Ethernet segment.
     Every knob (MTU, PCI efficiency, CLIC parameters...) lives in the
     config record; defaults model the paper's testbed. *)
  let cluster = Net.create ~n:2 () in
  let alice = Net.node cluster 0 and bob = Net.node cluster 1 in

  (* Application code runs as simulation processes on a node. *)
  Node.spawn bob (fun () ->
      (* Blocking receive on CLIC port 7. *)
      let msg = Clic.Api.recv bob.Node.clic ~port:7 in
      Printf.printf "bob:   got %d bytes from node %d at t=%s\n"
        msg.Clic.Clic_module.msg_bytes msg.Clic.Clic_module.msg_src
        (Time.to_string (Sim.now cluster.Net.sim));
      (* reply *)
      Clic.Api.send bob.Node.clic ~dst:0 ~port:7 64);

  Node.spawn alice (fun () ->
      Printf.printf "alice: sending 4 KB over CLIC...\n";
      Clic.Api.send alice.Node.clic ~dst:1 ~port:7 4096;
      ignore (Clic.Api.recv alice.Node.clic ~port:7);
      Printf.printf "alice: reply received at t=%s\n"
        (Time.to_string (Sim.now cluster.Net.sim)));

  Net.run cluster;

  (* The measurement harness automates ping-pong and streaming runs. *)
  let latency =
    let c = Net.create ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 in
    (Measure.pingpong c pair ~size:0 ()).Measure.one_way
  in
  let bandwidth =
    let c = Net.create ~config:(Node.gigabit_jumbo Node.default_config) ~n:2 () in
    let pair = Measure.clic_pair c ~a:0 ~b:1 in
    (Measure.pingpong c pair ~size:1_048_576 ~reps:3 ~warmup:1 ())
      .Measure.pp_bandwidth_mbps
  in
  Printf.printf "\nCLIC 0-byte latency : %.1f us   (paper: 36 us)\n"
    (Time.to_us latency);
  Printf.printf "CLIC 1MB bandwidth  : %.0f Mbit/s (paper: ~600 at MTU 9000)\n"
    bandwidth
