open Engine
open Hw

type stats = {
  sent : int;
  delivered : int;
  bytes : int;
  stranded : int;
  elapsed : Time.span;
}

type tally = {
  mutable t_sent : int;
  mutable t_delivered : int;
  mutable t_bytes : int;
  mutable t_first : Time.t option;
  mutable t_last : Time.t;
}

let fresh_tally () =
  { t_sent = 0; t_delivered = 0; t_bytes = 0; t_first = None; t_last = 0 }

let note_send tally now =
  tally.t_sent <- tally.t_sent + 1;
  if tally.t_first = None then tally.t_first <- Some now

let note_delivery tally now bytes =
  tally.t_delivered <- tally.t_delivered + 1;
  tally.t_bytes <- tally.t_bytes + bytes;
  tally.t_last <- now

let stats_of tally =
  {
    sent = tally.t_sent;
    delivered = tally.t_delivered;
    bytes = tally.t_bytes;
    stranded = (if tally.t_sent > tally.t_delivered then
                  tally.t_sent - tally.t_delivered
                else 0);
    elapsed =
      (match tally.t_first with
      | Some first -> Time.diff tally.t_last first
      | None -> 0);
  }

(* A receiver loop per node: counts everything that arrives on the port.
   Loops left parked in a final blocking receive when traffic ends are by
   design — the simulation drains around them; [stats.stranded] counts the
   messages those parked receivers were still owed. *)
let spawn_receivers c ~port tally =
  for i = 0 to Net.size c - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        let rec loop () =
          let msg = Clic.Api.recv node.Node.clic ~port in
          note_delivery tally (Sim.now c.Net.sim)
            msg.Clic.Clic_module.msg_bytes;
          loop ()
        in
        loop ())
  done

let uniform_random c ~seed ~messages_per_node ?(min_size = 1)
    ?(max_size = 16384) ?(port = 70) () =
  if min_size < 0 || max_size < min_size then
    invalid_arg "Workload.uniform_random: bad size range";
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.uniform_random: need >= 2 nodes";
  let tally = fresh_tally () in
  spawn_receivers c ~port tally;
  let root_rng = Rng.create ~seed in
  for i = 0 to n - 1 do
    let rng = Rng.split root_rng in
    let node = Net.node c i in
    Node.spawn node (fun () ->
        for _ = 1 to messages_per_node do
          let dst =
            let d = Rng.int rng (n - 1) in
            if d >= i then d + 1 else d
          in
          let size = min_size + Rng.int rng (max_size - min_size + 1) in
          note_send tally (Sim.now c.Net.sim);
          Clic.Api.send node.Node.clic ~dst ~port size
        done)
  done;
  Net.run c;
  stats_of tally

let hotspot c ~seed ~target ?senders ~messages_per_node ?(size = 4096)
    ?(port = 71) () =
  let n = Net.size c in
  if target < 0 || target >= n then invalid_arg "Workload.hotspot: bad target";
  let is_sender =
    match senders with
    | None -> fun i -> i <> target
    | Some ids ->
        List.iter
          (fun i ->
            if i < 0 || i >= n || i = target then
              invalid_arg "Workload.hotspot: bad sender id")
          ids;
        fun i -> List.mem i ids
  in
  let tally = fresh_tally () in
  spawn_receivers c ~port tally;
  let root_rng = Rng.create ~seed in
  for i = 0 to n - 1 do
    if is_sender i then begin
      let rng = Rng.split root_rng in
      let node = Net.node c i in
      Node.spawn node (fun () ->
          (* desynchronize the stampede a little, like real senders *)
          Process.delay (Rng.int rng 50);
          for _ = 1 to messages_per_node do
            note_send tally (Sim.now c.Net.sim);
            Clic.Api.send node.Node.clic ~dst:target ~port size
          done)
    end
  done;
  Net.run c;
  stats_of tally

(* --------------------------------------------------------------- *)
(* Open-loop request-response workloads with tail-latency accounting *)

type arrival =
  | Poisson of { mean_gap : Time.span }
  | Pareto of { shape : float; min_gap : Time.span }

let validate_arrival = function
  | Poisson { mean_gap } ->
      if mean_gap <= 0 then invalid_arg "Workload: Poisson mean_gap <= 0"
  | Pareto { shape; min_gap } ->
      if shape <= 1.0 then
        invalid_arg "Workload: Pareto shape <= 1 (mean inter-arrival \
                     time would not exist)";
      if min_gap <= 0 then invalid_arg "Workload: Pareto min_gap <= 0"

let draw_gap rng = function
  | Poisson { mean_gap } ->
      let g =
        int_of_float (Rng.exponential rng ~mean:(float_of_int mean_gap))
      in
      if g < 1 then 1 else g
  | Pareto { shape; min_gap } ->
      let g =
        int_of_float (Rng.pareto rng ~shape ~scale:(float_of_int min_gap))
      in
      if g < 1 then 1 else g

type slo = {
  slo_requests : int;
  slo_completed : int;
  slo_timeouts : int;
  slo_stranded : int;
  slo_p50_us : float;
  slo_p99_us : float;
  slo_p999_us : float;
  slo_mean_us : float;
  slo_max_us : float;
  slo_goodput_mbps : float;
  slo_elapsed : Time.span;
  slo_samples : (Time.t * float) array;
}

(* Heap sort by [Float.compare], monomorphic so that no element is boxed:
   [Array.sort] boxes every float it reads. *)
let rec sift_down (a : float array) i n =
  let child = (2 * i) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && Float.compare a.(child + 1) a.(child) > 0 then
        child + 1
      else child
    in
    if Float.compare a.(child) a.(i) > 0 then begin
      let x = a.(i) in
      a.(i) <- a.(child);
      a.(child) <- x;
      sift_down a child n
    end
  end

let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let quantile samples =
  let sorted = Array.copy samples in
  sort_floats sorted;
  let n = Array.length sorted in
  fun p ->
    if p < 0. || p > 100. then
      invalid_arg "Workload.quantile: percentile outside [0,100]";
    if n = 0 then 0.
    else
      sorted.(Stdlib.min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))

(* Mutable scoreboard shared by the dispatcher, pair senders and response
   listeners of one open-loop run. *)
type scoreboard = {
  mutable sb_requests : int;
  mutable sb_completed : int;
  mutable sb_timeouts : int;
  mutable sb_samples : (Time.t * float) list;  (* completion order *)
}

let slo_of sb tally ~resp_size =
  let samples = Array.of_list (List.rev sb.sb_samples) in
  let lats = Array.map snd samples in
  let n = Array.length lats in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. lats /. float_of_int n
  in
  let max_ = Array.fold_left Float.max 0. lats in
  let rank = quantile lats in
  let elapsed =
    match tally.t_first with
    | Some first -> Time.diff tally.t_last first
    | None -> 0
  in
  let goodput =
    if elapsed > 0 then
      float_of_int (sb.sb_completed * resp_size * 8)
      /. Time.to_s elapsed /. 1e6
    else 0.
  in
  {
    slo_requests = sb.sb_requests;
    slo_completed = sb.sb_completed;
    slo_timeouts = sb.sb_timeouts;
    slo_stranded = sb.sb_requests - sb.sb_completed;
    slo_p50_us = rank 50.;
    slo_p99_us = rank 99.;
    slo_p999_us = rank 99.9;
    slo_mean_us = mean;
    slo_max_us = max_;
    slo_goodput_mbps = goodput;
    slo_elapsed = elapsed;
    slo_samples = samples;
  }

(* Every node runs a request pump, a send worker, a response listener
   and an open-loop dispatcher; the net then runs until it drains.

   Latency is charged from the scheduled arrival instant, not from when
   the request actually reached the wire: open-loop clients do not get to
   stop the clock while their own stack backlogs.  Responses are matched
   to requests through a per-(client, server) FIFO — requests of one pair
   travel one CLIC channel in order and the node answers them in arrival
   order, so the oldest pending arrival is always the one a response
   resolves.

   Every CLIC send a node performs — its own requests and the responses
   it owes — issues from one worker process draining one inbox, so a
   node's sends are serialised: never two sender processes interleaving
   on the same channel.  The inbox order still races the request pump
   against the dispatcher at the same instant, which reorders a node's
   sends across flows but never within one (requests and responses go
   to different ports), so the checker's per-flow trace hash pins this
   workload. *)
let open_loop c ~seed ~arrival ?(requests_per_node = 100) ?(req_size = 512)
    ?(resp_size = 4096) ?(deadline = 0) ?(port = 73) () =
  validate_arrival arrival;
  if requests_per_node <= 0 then
    invalid_arg "Workload.open_loop: requests_per_node <= 0";
  if req_size <= 0 || resp_size <= 0 then
    invalid_arg "Workload.open_loop: message size <= 0";
  if deadline < 0 then invalid_arg "Workload.open_loop: deadline < 0";
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.open_loop: need >= 2 nodes";
  let tally = fresh_tally () in
  let sb =
    { sb_requests = 0; sb_completed = 0; sb_timeouts = 0; sb_samples = [] }
  in
  let pending = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()))
  in
  let inbox = Array.init n (fun _ -> Mailbox.create ()) in
  (* Request pump + send worker: the pump lifts arrived requests out of
     the CLIC port queue into the inbox; the worker performs every send
     the node owes, one at a time. *)
  for i = 0 to n - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        let rec pump () =
          let msg = Clic.Api.recv node.Node.clic ~port in
          Mailbox.send inbox.(i) (`Respond msg.Clic.Clic_module.msg_src);
          pump ()
        in
        pump ());
    Node.spawn node (fun () ->
        let rec work () =
          (match Mailbox.recv inbox.(i) with
          | `Fire dst -> Clic.Api.send node.Node.clic ~dst ~port req_size
          | `Respond src ->
              Clic.Api.send node.Node.clic ~dst:src ~port:(port + 1)
                resp_size);
          work ()
        in
        work ())
  done;
  (* Response listeners *)
  for i = 0 to n - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        let rec loop () =
          let msg = Clic.Api.recv node.Node.clic ~port:(port + 1) in
          let now = Sim.now c.Net.sim in
          (match Queue.take_opt pending.(i).(msg.Clic.Clic_module.msg_src)
           with
          | Some t0 ->
              let lat = Time.diff now t0 in
              sb.sb_completed <- sb.sb_completed + 1;
              if deadline > 0 && lat > deadline then
                sb.sb_timeouts <- sb.sb_timeouts + 1;
              sb.sb_samples <-
                (t0, Time.to_us lat) :: sb.sb_samples;
              note_delivery tally now msg.Clic.Clic_module.msg_bytes
          | None -> ());
          loop ()
        in
        loop ())
  done;
  (* Open-loop dispatchers: arrivals fire on the drawn schedule whether or
     not earlier requests have completed — the worker may get to a request
     late, but its clock started at the scheduled arrival. *)
  let root_rng = Rng.create ~seed in
  for i = 0 to n - 1 do
    let rng = Rng.split root_rng in
    let node = Net.node c i in
    Node.spawn node (fun () ->
        for _ = 1 to requests_per_node do
          Process.delay (draw_gap rng arrival);
          let dst =
            let d = Rng.int rng (n - 1) in
            if d >= i then d + 1 else d
          in
          let now = Sim.now c.Net.sim in
          sb.sb_requests <- sb.sb_requests + 1;
          note_send tally now;
          Queue.add now pending.(i).(dst);
          Mailbox.send inbox.(i) (`Fire dst)
        done)
  done;
  Net.run c;
  (stats_of tally, slo_of sb tally ~resp_size)

(* --------------------------------------------------------------- *)
(* Gray-failure injection window *)

let inject_gray c ?(nic_nodes = []) ?(nic_factor = 2.5) ?(stall_nodes = [])
    ?(stall_every = Time.us 100.) ?(stall_span = Time.us 40.) ~from_ ~until_
    () =
  if nic_factor < 1.0 then invalid_arg "Workload.inject_gray: nic_factor < 1";
  if from_ < 0 || until_ <= from_ then
    invalid_arg "Workload.inject_gray: empty or negative window";
  if stall_every <= 0 || stall_span <= 0 then
    invalid_arg "Workload.inject_gray: stall period <= 0";
  let n = Net.size c in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Workload.inject_gray: unknown node %d" i))
    (nic_nodes @ stall_nodes);
  let sim = c.Net.sim in
  List.iter
    (fun i ->
      Sim.post sim ~after:from_ (fun () ->
          let node = Net.node c i in
          List.iter (fun nic -> Nic.set_slow_factor nic nic_factor)
            node.Node.nics);
      Sim.post sim ~after:until_ (fun () ->
          let node = Net.node c i in
          List.iter (fun nic -> Nic.set_slow_factor nic 1.0) node.Node.nics))
    nic_nodes;
  List.iter
    (fun i ->
      let rec tick at =
        if at < until_ then begin
          Sim.post sim ~after:at (fun () ->
              List.iter
                (fun sw ->
                  if Switch.has_node sw i then
                    Switch.inject_stall sw ~node:i ~span:stall_span)
                c.Net.switches);
          tick (at + stall_every)
        end
      in
      tick from_)
    stall_nodes
