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

let ring c ~rounds ?(size = 8192) ?(port = 72) () =
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.ring: need >= 2 nodes";
  let tally = fresh_tally () in
  for i = 0 to n - 1 do
    let node = Net.node c i in
    let next = (i + 1) mod n in
    Node.spawn node (fun () ->
        for _ = 1 to rounds do
          note_send tally (Sim.now c.Net.sim);
          Clic.Api.send node.Node.clic ~dst:next ~port size;
          let msg = Clic.Api.recv node.Node.clic ~port in
          note_delivery tally (Sim.now c.Net.sim)
            msg.Clic.Clic_module.msg_bytes
        done)
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

let quantile samples p =
  if p < 0. || p > 100. then
    invalid_arg "Workload.quantile: percentile outside [0,100]";
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    a.(Stdlib.min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))
  end

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
    slo_p50_us = quantile lats 50.;
    slo_p99_us = quantile lats 99.;
    slo_p999_us = quantile lats 99.9;
    slo_mean_us = mean;
    slo_max_us = max_;
    slo_goodput_mbps = goodput;
    slo_elapsed = elapsed;
    slo_samples = samples;
  }

(* One echo server process per node: serves requests FIFO, answering each
   to its sender on [port + 1].  Single-threaded on purpose — a busy
   server queues, which is exactly where open-loop tails come from. *)
let spawn_servers c ~port ~resp_size =
  for i = 0 to Net.size c - 1 do
    let node = Net.node c i in
    Node.spawn node (fun () ->
        let rec loop () =
          let msg = Clic.Api.recv node.Node.clic ~port in
          Clic.Api.send node.Node.clic ~dst:msg.Clic.Clic_module.msg_src
            ~port:(port + 1) resp_size;
          loop ()
        in
        loop ())
  done

(* Spawns the full request-response fabric (request pumps, per-node send
   workers, response listeners, dispatchers) without running the
   simulation, so mixes can lay several workloads over the same cluster.
   Returns the finisher that builds the stats once the net has drained.

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
   on the same channel.  That does not make the logical trace invariant
   under the checker's seeded same-instant permutations: the inbox order
   itself still races the request pump against the dispatcher, so
   per-node message ids can shift.  That race is why [open_loop_oneway]
   and [Figures.slo_trace] exist (pinning this workload is an open item
   in ROADMAP.md, "Pin the request-response workloads"). *)
let spawn_open_loop c ~seed ~arrival ~requests_per_node ~req_size ~resp_size
    ~deadline ~port =
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
  fun () -> (stats_of tally, slo_of sb tally ~resp_size)

let open_loop c ~seed ~arrival ?(requests_per_node = 100) ?(req_size = 512)
    ?(resp_size = 4096) ?(deadline = 0) ?(port = 73) () =
  let finish =
    spawn_open_loop c ~seed ~arrival ~requests_per_node ~req_size ~resp_size
      ~deadline ~port
  in
  Net.run c;
  finish ()

(* One-way open-loop variant: same seeded arrival schedule, no response
   leg.  Latency is delivery instant minus scheduled arrival, so client
   backlog and everything the gray fabric does to the request still
   lands in the tail.  Because the only send producer per node is its
   own dispatcher, each node's send order equals its arrival schedule no
   matter how same-instant contention resolves — the logical trace is
   invariant under the checker's seeded tie-break permutations, which
   makes this the variant the pinned `slo` scenario runs.  (The echo
   variant's response ordering is inherently timing-coupled: a response
   send order races a scheduled request whenever CPU contention shifts a
   delivery, so its trace cannot be pinned.) *)
let open_loop_oneway c ~seed ~arrival ?(requests_per_node = 100)
    ?(req_size = 512) ?(deadline = 0) ?(port = 73) () =
  validate_arrival arrival;
  if requests_per_node <= 0 then
    invalid_arg "Workload.open_loop_oneway: requests_per_node <= 0";
  if req_size <= 0 then
    invalid_arg "Workload.open_loop_oneway: message size <= 0";
  if deadline < 0 then invalid_arg "Workload.open_loop_oneway: deadline < 0";
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.open_loop_oneway: need >= 2 nodes";
  let tally = fresh_tally () in
  let sb =
    { sb_requests = 0; sb_completed = 0; sb_timeouts = 0; sb_samples = [] }
  in
  let pending = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()))
  in
  let inbox = Array.init n (fun _ -> Mailbox.create ()) in
  for i = 0 to n - 1 do
    let node = Net.node c i in
    (* Receiver: pure accounting, never sends.  Requests of one pair ride
       one CLIC channel in order, so the oldest scheduled arrival is
       always the one a delivery resolves. *)
    Node.spawn node (fun () ->
        let rec loop () =
          let msg = Clic.Api.recv node.Node.clic ~port in
          let now = Sim.now c.Net.sim in
          (match Queue.take_opt pending.(msg.Clic.Clic_module.msg_src).(i)
           with
          | Some t0 ->
              let lat = Time.diff now t0 in
              sb.sb_completed <- sb.sb_completed + 1;
              if deadline > 0 && lat > deadline then
                sb.sb_timeouts <- sb.sb_timeouts + 1;
              sb.sb_samples <- (t0, Time.to_us lat) :: sb.sb_samples;
              note_delivery tally now msg.Clic.Clic_module.msg_bytes
          | None -> ());
          loop ()
        in
        loop ());
    (* Send worker: drains the dispatcher's schedule, its only producer. *)
    Node.spawn node (fun () ->
        let rec work () =
          let dst = Mailbox.recv inbox.(i) in
          Clic.Api.send node.Node.clic ~dst ~port req_size;
          work ()
        in
        work ())
  done;
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
          Mailbox.send inbox.(i) dst
        done)
  done;
  Net.run c;
  (stats_of tally, slo_of sb tally ~resp_size:req_size)

(* --------------------------------------------------------------- *)
(* Partition-aggregate fan-out (websearch-style root -> leaves -> root) *)

type fanout_stats = {
  fo_queries : int;
  fo_completed : int;
  fo_stragglers : int;
  fo_leaf_p99_us : float;
}

type query = {
  q_t0 : Time.t;
  mutable q_left : int;
  mutable q_first : Time.t option;  (* first leaf response *)
}

let partition_aggregate c ~seed ?(queries = 50) ?fanout
    ?(arrival = Poisson { mean_gap = Time.us 30. }) ?(req_size = 256)
    ?(resp_size = 2048) ?(straggler_slack = Time.us 200.) ?(deadline = 0)
    ?(port = 75) () =
  validate_arrival arrival;
  if queries <= 0 then
    invalid_arg "Workload.partition_aggregate: queries <= 0";
  if req_size <= 0 || resp_size <= 0 then
    invalid_arg "Workload.partition_aggregate: message size <= 0";
  if straggler_slack <= 0 then
    invalid_arg "Workload.partition_aggregate: straggler_slack <= 0";
  if deadline < 0 then
    invalid_arg "Workload.partition_aggregate: deadline < 0";
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.partition_aggregate: need >= 2 nodes";
  let fanout = match fanout with None -> n - 1 | Some f -> f in
  if fanout < 1 || fanout > n - 1 then
    invalid_arg "Workload.partition_aggregate: fanout outside [1, n-1]";
  let tally = fresh_tally () in
  let sb =
    { sb_requests = 0; sb_completed = 0; sb_timeouts = 0; sb_samples = [] }
  in
  let stragglers = ref 0 in
  let leaf_lats = ref [] in
  spawn_servers c ~port ~resp_size;
  let root = Net.node c 0 in
  let pending = Array.init n (fun _ -> Queue.create ()) in
  let mail = Array.init n (fun _ -> Mailbox.create ()) in
  for j = 1 to n - 1 do
    Node.spawn root (fun () ->
        let rec loop () =
          let (_ : Time.t) = Mailbox.recv mail.(j) in
          Clic.Api.send root.Node.clic ~dst:j ~port req_size;
          loop ()
        in
        loop ())
  done;
  (* Root aggregation listener: a query completes when its slowest leaf
     answers; the straggler gap is slowest minus fastest. *)
  Node.spawn root (fun () ->
      let rec loop () =
        let msg = Clic.Api.recv root.Node.clic ~port:(port + 1) in
        let now = Sim.now c.Net.sim in
        (match Queue.take_opt pending.(msg.Clic.Clic_module.msg_src) with
        | Some q ->
            note_delivery tally now msg.Clic.Clic_module.msg_bytes;
            leaf_lats := Time.to_us (Time.diff now q.q_t0) :: !leaf_lats;
            if q.q_first = None then q.q_first <- Some now;
            q.q_left <- q.q_left - 1;
            if q.q_left = 0 then begin
              let lat = Time.diff now q.q_t0 in
              sb.sb_completed <- sb.sb_completed + 1;
              if deadline > 0 && lat > deadline then
                sb.sb_timeouts <- sb.sb_timeouts + 1;
              sb.sb_samples <- (q.q_t0, Time.to_us lat) :: sb.sb_samples;
              match q.q_first with
              | Some first when Time.diff now first > straggler_slack ->
                  incr stragglers
              | _ -> ()
            end
        | None -> ());
        loop ()
      in
      loop ());
  (* Query dispatcher at the root (the only open-loop arrival stream). *)
  let root_rng = Rng.create ~seed in
  let rng = Rng.split root_rng in
  Node.spawn root (fun () ->
      let leaves = Array.init (n - 1) (fun k -> k + 1) in
      for _ = 1 to queries do
        Process.delay (draw_gap rng arrival);
        (* Partial Fisher-Yates: the first [fanout] slots become the
           query's leaf set. *)
        for k = 0 to fanout - 1 do
          let swap = k + Rng.int rng (n - 1 - k) in
          let tmp = leaves.(k) in
          leaves.(k) <- leaves.(swap);
          leaves.(swap) <- tmp
        done;
        let now = Sim.now c.Net.sim in
        sb.sb_requests <- sb.sb_requests + 1;
        let q = { q_t0 = now; q_left = fanout; q_first = None } in
        for k = 0 to fanout - 1 do
          note_send tally now;
          Queue.add q pending.(leaves.(k));
          Mailbox.send mail.(leaves.(k)) now
        done
      done);
  Net.run c;
  let leaf_arr = Array.of_list !leaf_lats in
  ( stats_of tally,
    slo_of sb tally ~resp_size,
    {
      fo_queries = queries;
      fo_completed = sb.sb_completed;
      fo_stragglers = !stragglers;
      fo_leaf_p99_us = quantile leaf_arr 99.;
    } )

(* --------------------------------------------------------------- *)
(* Elephants vs mice *)

type mix = { mix_elephants : stats; mix_mice : stats; mix_slo : slo }

let elephants_mice c ~seed ?elephant_pairs ?(elephant_messages = 20)
    ?(elephant_size = 131072) ?(arrival = Poisson { mean_gap = Time.us 25. })
    ?(requests_per_node = 80) ?(req_size = 256) ?(resp_size = 1024)
    ?(deadline = 0) ?(port = 77) () =
  let n = Net.size c in
  if n < 2 then invalid_arg "Workload.elephants_mice: need >= 2 nodes";
  let elephant_pairs =
    match elephant_pairs with None -> max 1 (n / 4) | Some p -> p
  in
  if elephant_pairs < 1 || elephant_pairs > n then
    invalid_arg "Workload.elephants_mice: elephant_pairs outside [1, n]";
  if elephant_messages <= 0 || elephant_size <= 0 then
    invalid_arg "Workload.elephants_mice: bad elephant shape";
  let mice_finish =
    spawn_open_loop c ~seed ~arrival ~requests_per_node ~req_size ~resp_size
      ~deadline ~port
  in
  (* Bulk transfers crossing the fabric while the mice scurry: sender k
     streams to the node halfway around, so elephants share links with
     everyone's mice. *)
  let elephant_port = port + 2 in
  let e_tally = fresh_tally () in
  spawn_receivers c ~port:elephant_port e_tally;
  for k = 0 to elephant_pairs - 1 do
    let node = Net.node c k in
    let dst = (k + (n / 2)) mod n in
    let dst = if dst = k then (k + 1) mod n else dst in
    Node.spawn node (fun () ->
        for _ = 1 to elephant_messages do
          note_send e_tally (Sim.now c.Net.sim);
          Clic.Api.send node.Node.clic ~dst ~port:elephant_port elephant_size
        done)
  done;
  Net.run c;
  let mice_stats, mice_slo = mice_finish () in
  {
    mix_elephants = stats_of e_tally;
    mix_mice = mice_stats;
    mix_slo = mice_slo;
  }

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
