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
   ([Trace.merged_length]), so a stage never exceeds wall-clock time, and
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
  (* label -> intervals, per side *)
  spans : (string, (int * int) list ref) Hashtbl.t;
}

let sender_labels = [ "clic:module-tx"; "driver:tx-routine" ]

let receiver_labels =
  [ "driver:isr"; "driver:bottom-half"; "clic:module-rx"; "clic:copy-to-user" ]

let us ns = float_of_int ns /. 1000.

(* Accumulate per-key message lists; finalized to send-ordered arrays. *)
let tbl_append tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

let add_span acc label iv =
  match Hashtbl.find_opt acc.spans label with
  | Some r -> r := iv :: !r
  | None -> Hashtbl.add acc.spans label (ref [ iv ])

let merged acc label =
  match Hashtbl.find_opt acc.spans label with
  | Some r -> us (Trace.merged_length !r)
  | None -> 0.

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
        ~module_tx:(merged acc "clic:module-tx")
        ~driver_tx:(merged acc "driver:tx-routine")
        ~isr:(merged acc "driver:isr")
        ~bottom_half:(merged acc "driver:bottom-half")
        ~module_rx:
          (merged acc "clic:module-rx" +. merged acc "clic:copy-to-user")
        ~total;
  }

let messages recorder =
  let by_key = Hashtbl.create 64 in
  let order = ref [] in
  (* First pass: the message population and its lifecycle stamps. *)
  List.iter
    (fun { Recorder.at; ev } ->
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
              spans = Hashtbl.create 8;
            }
          in
          (* A later send reusing the key (fresh [Sim] in the same run)
             supersedes the old message. *)
          Hashtbl.replace by_key (node, msg_id) acc;
          order := acc :: !order
      | Probe.Msg_deliver { src; msg_id; _ } -> (
          match Hashtbl.find_opt by_key (src, msg_id) with
          | Some acc when acc.m_deliver = None -> acc.m_deliver <- Some at
          | _ -> ())
      | Probe.Msg_recv { src; msg_id; _ } -> (
          match Hashtbl.find_opt by_key (src, msg_id) with
          | Some acc when acc.m_recv = None -> acc.m_recv <- Some at
          | _ -> ())
      | _ -> ())
    (Recorder.events recorder);
  let order = List.rev !order in
  (* Second pass: attribute labelled spans.  Sender side: the latest
     message entered on that node at the span's start.  Receiver side:
     the oldest message still undelivered to that node (fragments are
     delivered in order).  Spans are processed in start order so both
     picks reduce to per-node cursors over the send-ordered message
     list — O(spans + messages) after the sort. *)
  let spans =
    List.filter_map
      (fun { Recorder.ev; _ } ->
        match ev with
        | Probe.Span { host; label; start; finish; _ }
          when List.mem label sender_labels || List.mem label receiver_labels
          -> (
            match Host.node_of host with
            | Some node -> Some (start, finish, node, label)
            | None -> None)
        | _ -> None)
      (Recorder.events recorder)
    |> List.sort compare
  in
  let by_src = Hashtbl.create 8 and by_dst = Hashtbl.create 8 in
  List.iter
    (fun acc ->
      tbl_append by_src acc.m_src acc;
      tbl_append by_dst acc.m_dst acc)
    order;
  (* rev-accumulated lists -> send-ordered arrays *)
  let freeze tbl =
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun k r -> Hashtbl.replace out k (Array.of_list (List.rev !r)))
      tbl;
    out
  in
  let by_src = freeze by_src and by_dst = freeze by_dst in
  let cursor tbl = (tbl, Hashtbl.create 8) in
  let src_cur = cursor by_src and dst_cur = cursor by_dst in
  let msgs_of (tbl, _) n =
    match Hashtbl.find_opt tbl n with Some a -> a | None -> [||]
  in
  let cur_of (_, c) n = match Hashtbl.find_opt c n with Some i -> i | None -> 0 in
  let set_cur (_, c) n i = Hashtbl.replace c n i in
  let sender_pick node start =
    let msgs = msgs_of src_cur node in
    let i = ref (cur_of src_cur node) in
    (* advance to the last message entered at or before [start] *)
    while
      !i + 1 < Array.length msgs && msgs.(!i + 1).m_send <= start
    do
      incr i
    done;
    set_cur src_cur node !i;
    if Array.length msgs > 0 && msgs.(!i).m_send <= start then Some msgs.(!i)
    else None
  in
  let receiver_pick node start =
    let msgs = msgs_of dst_cur node in
    let i = ref (cur_of dst_cur node) in
    (* skip messages fully received before [start]: span starts are
       non-decreasing, so they can never match again *)
    while
      !i < Array.length msgs
      && (match msgs.(!i).m_recv with Some r -> r < start | None -> false)
    do
      incr i
    done;
    set_cur dst_cur node !i;
    if !i < Array.length msgs && msgs.(!i).m_send <= start then Some msgs.(!i)
    else None
  in
  List.iter
    (fun (start, finish, node, label) ->
      let target =
        if List.mem label sender_labels then sender_pick node start
        else receiver_pick node start
      in
      match target with
      | Some acc -> add_span acc label (start, finish)
      | None -> ())
    spans;
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
