(* Per-message latency attribution.

   Reconstructs, for every CLIC message in a recorded run, the Figure 7
   stage breakdown: CLIC_MODULE send work, driver transmit routine,
   transit (buses + wire + switch + interrupt dispatch), ISR, bottom-half
   driver work, and CLIC_MODULE receive work including the copy to user
   memory.

   The pass pairs three probe events per message — [Msg_send] (syscall
   entry), [Msg_deliver] (last fragment reassembled) and [Msg_recv] (copy
   to the receiver's user memory complete) — and attributes the labelled
   [Span]s on the sender's and receiver's CPUs to messages:

   - sender-side spans ("clic:module-tx", "driver:tx-routine") belong to
     the latest message the sender had entered at the span's start;
   - receiver-side spans ("driver:isr", "driver:bottom-half",
     "clic:module-rx", "clic:copy-to-user") belong to the oldest message
     still in flight to that node — fragments are delivered in order, so
     interrupt-side work services the oldest undelivered message.

   Stage durations merge each label's intervals disjointly
   ([merged_length]), so a stage never exceeds wall-clock time, and
   [Report.Figures.fig7_stages] splits them as Figure 7 does.  With
   pipelined traffic the windows of consecutive messages overlap and
   shared batch work (one ISR draining several messages' fragments) is
   charged to the oldest message — totals stay exact per message, stage
   splits are an attribution, not a measurement. *)

open Engine

type stages = Report.Figures.fig7_stages = {
  module_tx_us : float;
  driver_tx_us : float;
  transit_us : float;
  isr_us : float;
  bottom_half_us : float;
  module_rx_us : float;
  total_us : float;
}

type message = {
  src : int;
  dst : int;
  port : int;
  msg_id : int;
  bytes : int;
  t_send : int;
  t_deliver : int option;
  t_recv : int option;
  stages : stages;
}

type msg_acc = {
  m_src : int;
  m_dst : int;
  m_port : int;
  m_id : int;
  m_bytes : int;
  m_send : int;
  mutable m_deliver : int option;
  mutable m_recv : int option;
  spans : (int * int) list array;  (* intervals, by label index *)
}

(* Indices of the attributed span labels. *)
let copy_to_user = 0
let module_rx = 1
let module_tx = 2
let bottom_half = 3
let isr = 4
let tx_routine = 5

let label_index = function
  | "clic:copy-to-user" -> copy_to_user
  | "clic:module-rx" -> module_rx
  | "clic:module-tx" -> module_tx
  | "driver:bottom-half" -> bottom_half
  | "driver:isr" -> isr
  | "driver:tx-routine" -> tx_routine
  | _ -> -1

let sender_side label = label = module_tx || label = tx_routine

let us ns = float_of_int ns /. 1000.

(* Merge-sweep over start-sorted intervals: extend the open interval while
   the next one overlaps (or abuts), otherwise close it out. *)
let merged_length intervals =
  let sorted = List.sort compare intervals in
  let total, open_iv =
    List.fold_left
      (fun (total, open_iv) (s, f) ->
        match open_iv with
        | None -> (total, Some (s, f))
        | Some (os, of_) ->
            if s <= of_ then (total, Some (os, max of_ f))
            else (total + Time.diff of_ os, Some (s, f)))
      (0, None) sorted
  in
  match open_iv with
  | None -> total
  | Some (os, of_) -> total + Time.diff of_ os

let merged acc label = us (merged_length acc.spans.(label))

let finish_message acc =
  let t_end =
    match (acc.m_recv, acc.m_deliver) with
    | Some r, _ -> Some r
    | None, Some d -> Some d
    | None, None -> None
  in
  let total =
    match t_end with Some e -> us (e - acc.m_send) | None -> 0.
  in
  {
    src = acc.m_src;
    dst = acc.m_dst;
    port = acc.m_port;
    msg_id = acc.m_id;
    bytes = acc.m_bytes;
    t_send = acc.m_send;
    t_deliver = acc.m_deliver;
    t_recv = acc.m_recv;
    stages =
      Report.Figures.fig7_stages
        ~module_tx:(merged acc module_tx)
        ~driver_tx:(merged acc tx_routine)
        ~isr:(merged acc isr)
        ~bottom_half:(merged acc bottom_half)
        ~module_rx:(merged acc module_rx +. merged acc copy_to_user)
        ~total;
  }

(* Per-node send-ordered message arrays, from the send-ordered list. *)
let by_node node_of order =
  let lists = Hashtbl.create 8 in
  List.iter
    (fun acc ->
      let n = node_of acc in
      Hashtbl.replace lists n
        (acc :: Option.value (Hashtbl.find_opt lists n) ~default:[]))
    order;
  let arrays = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter (fun n l -> Hashtbl.add arrays n (Array.of_list (List.rev l))) lists;
  arrays

(* The running maximum of the messages' receive times, [max_int] from the
   first one not received. *)
let received_marks msgs =
  let latest = ref min_int in
  Array.map
    (fun m ->
      latest := max !latest (Option.value m.m_recv ~default:max_int);
      !latest)
    msgs

let messages recorder =
  let by_key = Hashtbl.create 64 in
  let order = ref [] in
  let nodes = Hashtbl.create 64 (* host -> node, -1 for the fabric *) in
  let node_of_host host =
    match Hashtbl.find nodes host with
    | n -> n
    | exception Not_found ->
        let n = Option.value (Host.node_of host) ~default:(-1) in
        Hashtbl.add nodes host n;
        n
  in
  let spans = ref [] in
  (* One read of the recording: the message population, its lifecycle
     stamps, and the labelled spans to attribute once it is complete. *)
  Recorder.iter recorder (fun at ev ->
      match ev with
      | Probe.Msg_send { node; dst; port; msg_id; bytes; epoch = _ } ->
          let acc =
            {
              m_src = node;
              m_dst = dst;
              m_port = port;
              m_id = msg_id;
              m_bytes = bytes;
              m_send = at;
              m_deliver = None;
              m_recv = None;
              spans = Array.make 6 [];
            }
          in
          (* A later send reusing the key (fresh [Sim] in the same run)
             supersedes the old message. *)
          Hashtbl.replace by_key (node, msg_id) acc;
          order := acc :: !order
      | Probe.Msg_deliver { src; msg_id; _ } -> (
          match Hashtbl.find by_key (src, msg_id) with
          | acc when acc.m_deliver = None -> acc.m_deliver <- Some at
          | _ | (exception Not_found) -> ())
      | Probe.Msg_recv { src; msg_id; _ } -> (
          match Hashtbl.find by_key (src, msg_id) with
          | acc when acc.m_recv = None -> acc.m_recv <- Some at
          | _ | (exception Not_found) -> ())
      | Probe.Span { host; label; start; finish; _ } ->
          let label = label_index label in
          if label >= 0 then begin
            let node = node_of_host host in
            if node >= 0 then spans := (start, finish, node, label) :: !spans
          end
      | _ -> ());
  let order = List.rev !order in
  (* Sender side: the latest message entered on that node at the span's
     start.  Receiver side: the oldest message to that node not yet
     received by the span's start (fragments are delivered in order).
     Sends are stamped in order, so both picks are binary searches over
     the node's send-ordered messages: by send time, and by the running
     maximum of receive times ([max_int] while not received). *)
  let by_src = by_node (fun m -> m.m_src) order in
  let by_dst = Hashtbl.create 8 in
  Hashtbl.iter
    (fun node msgs -> Hashtbl.add by_dst node (msgs, received_marks msgs))
    (by_node (fun m -> m.m_dst) order);
  (* The first index in [0, n) where [reached i] holds; [n] if none.
     [reached] must be monotone. *)
  let first n reached =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if reached mid then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let sender_pick node start =
    match Hashtbl.find by_src node with
    | exception Not_found -> None
    | msgs ->
        let i = first (Array.length msgs) (fun i -> msgs.(i).m_send > start) in
        if i > 0 then Some msgs.(i - 1) else None
  in
  let receiver_pick node start =
    match Hashtbl.find by_dst node with
    | exception Not_found -> None
    | msgs, marks ->
        let i = first (Array.length msgs) (fun i -> marks.(i) >= start) in
        if i < Array.length msgs && msgs.(i).m_send <= start then Some msgs.(i)
        else None
  in
  List.iter
    (fun (start, finish, node, label) ->
      let target =
        if sender_side label then sender_pick node start
        else receiver_pick node start
      in
      match target with
      | Some acc -> acc.spans.(label) <- (start, finish) :: acc.spans.(label)
      | None -> ())
    !spans;
  List.map finish_message order

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type percentiles = { p50_us : float; p90_us : float; p99_us : float }

(* Histogram buckets are powers of two in ns: coarse, but monotone and
   cheap — the right tool for tail summaries over many messages. *)
let latency_percentiles msgs =
  let h = Stats.Histogram.create "msg-total-ns" in
  List.iter
    (fun m -> Stats.Histogram.add h (int_of_float (m.stages.total_us *. 1000.)))
    msgs;
  {
    p50_us = us (Stats.Histogram.percentile h 50.);
    p90_us = us (Stats.Histogram.percentile h 90.);
    p99_us = us (Stats.Histogram.percentile h 99.);
  }

let stage_means msgs =
  let n = max 1 (List.length msgs) in
  let f sel =
    List.fold_left (fun acc m -> acc +. sel m.stages) 0. msgs /. float_of_int n
  in
  {
    module_tx_us = f (fun s -> s.module_tx_us);
    driver_tx_us = f (fun s -> s.driver_tx_us);
    transit_us = f (fun s -> s.transit_us);
    isr_us = f (fun s -> s.isr_us);
    bottom_half_us = f (fun s -> s.bottom_half_us);
    module_rx_us = f (fun s -> s.module_rx_us);
    total_us = f (fun s -> s.total_us);
  }

let pp_table fmt msgs =
  Format.fprintf fmt
    "%-4s %-4s %-5s %-8s | %10s %10s %10s %10s %10s %10s | %10s@." "src"
    "dst" "msg" "bytes" "module-tx" "driver-tx" "transit" "isr"
    "bottom-hlf" "module-rx" "total-us";
  List.iter
    (fun m ->
      Format.fprintf fmt
        "%-4d %-4d %-5d %-8d | %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f | \
         %10.2f@."
        m.src m.dst m.msg_id m.bytes m.stages.module_tx_us
        m.stages.driver_tx_us m.stages.transit_us m.stages.isr_us
        m.stages.bottom_half_us m.stages.module_rx_us m.stages.total_us)
    msgs;
  if msgs <> [] then begin
    let mean = stage_means msgs in
    let p = latency_percentiles msgs in
    Format.fprintf fmt
      "%-24s | %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f | %10.2f@." "mean"
      mean.module_tx_us mean.driver_tx_us mean.transit_us mean.isr_us
      mean.bottom_half_us mean.module_rx_us mean.total_us;
    Format.fprintf fmt
      "total latency percentiles (bucketed): p50 %.1fus p90 %.1fus p99 %.1fus@."
      p.p50_us p.p90_us p.p99_us
  end
