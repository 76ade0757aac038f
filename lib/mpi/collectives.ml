let bcast_tag = 0x7ffe

let clic_bcast_root clic ~peers ~port n =
  Clic.Api.broadcast clic ~port n;
  (* Tiny reliable confirmations flow back on the ordinary channel. *)
  List.iter (fun _ -> ignore (Clic.Api.recv clic ~port)) peers

let clic_bcast_peer clic ~root ~port =
  ignore (Clic.Api.recv clic ~port);
  Clic.Api.send clic ~dst:root ~port 1

(* The canonical binomial-tree broadcast (as in MPICH): each rank receives
   from the peer that differs in its lowest set relative bit, then forwards
   to the ranks that differ in each lower bit. *)
let mpi_bcast mpi ~rank ~root ~size n =
  if size <= 0 then invalid_arg "Collectives.mpi_bcast: size <= 0";
  let rel = ((rank - root) mod size + size) mod size in
  let mask = ref 1 in
  let recv_mask = ref 0 in
  (try
     while !mask < size do
       if rel land !mask <> 0 then begin
         ignore (Mpi.recv mpi ~tag:bcast_tag ());
         recv_mask := !mask;
         raise Exit
       end;
       mask := !mask lsl 1
     done
   with Exit -> ());
  let mask = ref (if rel = 0 then
                    let rec top b = if b * 2 >= size then b else top (b * 2) in
                    if size = 1 then 0 else top 1
                  else !recv_mask lsr 1)
  in
  while !mask > 0 do
    if rel + !mask < size then begin
      let dst = (rank + !mask) mod size in
      Mpi.send mpi ~dst ~tag:bcast_tag n
    end;
    mask := !mask lsr 1
  done

let gather_tag = 0x7ffc
let allreduce_tag = 0x7ffb

(* Linear gather: every non-root rank sends its [n] bytes to the root,
   which receives size-1 contributions (any order). *)
let gather mpi ~rank ~root ~size n =
  if rank = root then
    for _ = 1 to size - 1 do
      ignore (Mpi.recv mpi ~tag:gather_tag ())
    done
  else Mpi.send mpi ~dst:root ~tag:gather_tag n

(* Ring allreduce: 2(size-1) steps of n/size-byte chunks — the classic
   bandwidth-optimal algorithm, here counting only the communication. *)
let allreduce mpi ~rank ~size n =
  if size > 1 && n > 0 then begin
    let chunk = max 1 (n / size) in
    let right = (rank + 1) mod size in
    let left = ((rank - 1) mod size + size) mod size in
    for _step = 1 to 2 * (size - 1) do
      let req = Mpi.irecv mpi ~src:left ~tag:allreduce_tag () in
      Mpi.send mpi ~dst:right ~tag:allreduce_tag chunk;
      ignore (Mpi.wait req)
    done
  end
