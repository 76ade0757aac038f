open Cluster

let mpi_pair label transport_of c ~a ~b =
  let mk id =
    let node = Net.node c id in
    Mpi_layer.Mpi.create node.Node.env ~rank:id (transport_of node ~rank:id)
  in
  let ma = mk a and mb = mk b in
  let send m ~dst n = Mpi_layer.Mpi.send m ~dst ~tag:1 n in
  let recv m = ignore (Mpi_layer.Mpi.recv m ()) in
  {
    Measure.label;
    a_setup = (fun () -> ());
    b_setup = (fun () -> ());
    a_send = (fun n -> send ma ~dst:b n);
    a_recv = (fun _ -> recv ma);
    b_send = (fun n -> send mb ~dst:a n);
    b_recv = (fun _ -> recv mb);
  }

let mpi_clic c ~a ~b =
  let reg = Mpi_layer.Mpi_clic.registry () in
  mpi_pair "mpi-clic"
    (fun node ~rank ->
      Mpi_layer.Mpi_clic.transport reg node.Node.clic ~rank)
    c ~a ~b

let mpi_tcp c ~a ~b =
  let reg = Mpi_layer.Mpi_tcp.registry () in
  mpi_pair "mpi-tcp"
    (fun node ~rank -> Mpi_layer.Mpi_tcp.transport reg node.Node.tcp ~rank)
    c ~a ~b

let pvm c ~a ~b =
  let mk id =
    let node = Net.node c id in
    Mpi_layer.Pvm.create node.Node.env node.Node.udp
  in
  let pa = mk a and pb = mk b in
  {
    Measure.label = "pvm";
    a_setup = (fun () -> ());
    b_setup = (fun () -> ());
    a_send = (fun n -> Mpi_layer.Pvm.send pa ~dst:b ~tag:1 n);
    a_recv = (fun _ -> ignore (Mpi_layer.Pvm.recv pa ()));
    b_send = (fun n -> Mpi_layer.Pvm.send pb ~dst:a ~tag:1 n);
    b_recv = (fun _ -> ignore (Mpi_layer.Pvm.recv pb ()));
  }

let of_name name c ~a ~b =
  match name with
  | "clic" -> Measure.clic_pair c ~a ~b
  | "tcp" -> Measure.tcp_pair c ~a ~b
  | "mpi-clic" -> mpi_clic c ~a ~b
  | "mpi-tcp" -> mpi_tcp c ~a ~b
  | "pvm" -> pvm c ~a ~b
  | other -> invalid_arg (Printf.sprintf "Pairs.of_name: unknown %S" other)
