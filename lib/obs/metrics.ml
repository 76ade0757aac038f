(* Time-series metrics derived from a recorded probe stream.

   Thirteen instrument families:

   - [cpu-utilization]   gauge, per CPU: busy fraction per time bucket,
                         from [Busy] spans on "cpuN" hosts
   - [bus-utilization]   gauge, per memory/PCI bus, same derivation
   - [irq-rate]          rate,  per NIC: interrupts per second per bucket
   - [queue-depth]       gauge, per named queue (NIC rx ring, switch
                         egress, link queues), event-timed samples
   - [channel-window]    gauge, per channel direction: packets in flight
   - [pool-bytes]        gauge, per kernel memory pool: bytes in use
   - [msg-count]         counter, per node: cumulative messages sent and
                         delivered
   - [switch-buffer]     gauge, per switch: shared-buffer bytes occupied
   - [switch-drop]       counter, per switch port and direction: frames
                         tail-dropped at the switch
   - [pause]             mixed, per host: [.state] gauge (1 while the
                         transmit path is PAUSEd) and [.tx]/[.rx] PAUSE
                         frame counters
   - [ecn-mark]          counter, per switch port: frames CE-marked on
                         enqueue above the ECN threshold
   - [sack]              counter, per channel direction: acks carrying
                         SACK blocks, [.tx] as advertised by receivers
                         and [.rx] as honoured by senders
   - [latency-quantile]  gauge, per receiving node: running p50/p99/p999
                         of message delivery latency (send syscall to
                         application delivery), matched by
                         (src, dst, msg id, epoch), one sample per
                         delivery

   Series are sampled either at event time (gauges driven by a probe
   event) or over fixed buckets (utilization and rates, where an
   instantaneous reading is meaningless).  Exports are deterministic:
   series sorted by name, fixed float formatting. *)

open Engine

type kind = Gauge | Rate | Counter

let kind_name = function
  | Gauge -> "gauge"
  | Rate -> "rate"
  | Counter -> "counter"

type series = {
  s_name : string;
  s_kind : kind;
  s_unit : string;
  s_points : (int * float) list;  (* (t_ns, value), time-ascending *)
}

type t = { bucket_ns : int; series : series list }

(* ------------------------------------------------------------------ *)
(* Derivations *)

let bucket_count = 200

(* A series under construction.  Its name, kind and unit are worked out
   once, on the first event that names it; later events find it by key. *)
type acc = {
  a_name : string;
  a_kind : kind;
  a_unit : string;
  mutable a_points : (int * float) list;  (* reverse order *)
  mutable a_count : int;  (* counters: events so far *)
}

let new_acc family name =
  let ends_state = Filename.check_suffix name ".state" in
  {
    a_name = family ^ "/" ^ name;
    a_kind =
      (match family with
      | "msg-count" | "switch-drop" | "ecn-mark" | "sack" -> Counter
      | "pause" -> if ends_state then Gauge else Counter
      | _ -> Gauge);
    a_unit =
      (match family with
      | "queue-depth" | "switch-drop" | "ecn-mark" -> "frames"
      | "channel-window" -> "packets"
      | "pool-bytes" | "switch-buffer" -> "bytes"
      | "sack" -> "acks"
      | "pause" -> if ends_state then "state" else "frames"
      | "latency-quantile" -> "us"
      | _ -> "messages");
    a_points = [];
    a_count = 0;
  }

let push s at v = s.a_points <- (at, v) :: s.a_points

let bump s at =
  s.a_count <- s.a_count + 1;
  push s at (float_of_int s.a_count)

(* One receiving node's delivery latencies (us), kept sorted as they
   arrive, and its three running-quantile series. *)
type latencies = {
  mutable sorted : float array;  (* [n] samples, then spare room *)
  mutable n : int;
  p50 : acc;
  p99 : acc;
  p999 : acc;
}

let add_latency l v =
  if l.n = Array.length l.sorted then begin
    let grown = Array.make (2 * l.n) 0. in
    Array.blit l.sorted 0 grown 0 l.n;
    l.sorted <- grown
  end;
  (* after the last sample <= v *)
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l.sorted.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  Array.blit l.sorted !lo l.sorted (!lo + 1) (l.n - !lo);
  l.sorted.(!lo) <- v;
  l.n <- l.n + 1

let quantile l p =
  l.sorted.(min (l.n - 1) (int_of_float (p /. 100. *. float_of_int l.n)))

let build ?bucket_ns recorder =
  let horizon = max 1 (Recorder.horizon recorder) in
  let bucket_ns =
    match bucket_ns with
    | Some b ->
        if b <= 0 then invalid_arg "Metrics.build: bucket_ns <= 0" else b
    | None -> max 1 (horizon / bucket_count)
  in
  let nbuckets = max 1 ((horizon + bucket_ns - 1) / bucket_ns) in
  (* Busy ns and interrupts per bucket, per host. *)
  let busy = Hashtbl.create 16 and irqs = Hashtbl.create 16 in
  let cells tbl host =
    match Hashtbl.find tbl host with
    | a -> a
    | exception Not_found ->
        let a = Array.make nbuckets 0 in
        Hashtbl.add tbl host a;
        a
  in
  let all = ref [] in
  let fresh family name =
    let s = new_acc family name in
    all := s :: !all;
    s
  in
  let add tbl key family name =
    let s = fresh family name in
    Hashtbl.add tbl key s;
    s
  in
  (* The series of a named resource: its name plus [suffix]. *)
  let named tbl name family suffix =
    match Hashtbl.find tbl name with
    | s -> s
    | exception Not_found -> add tbl name family (name ^ suffix)
  in
  (* The series of one channel direction, by channel id. *)
  let of_chan tbl family chan node peer suffix =
    match Hashtbl.find tbl chan with
    | s -> s
    | exception Not_found ->
        add tbl chan family
          (Printf.sprintf "chan%d:%d->%d%s" chan node peer suffix)
  in
  (* The series of one node, by node id. *)
  let of_node tbl family node tag =
    match Hashtbl.find tbl node with
    | s -> s
    | exception Not_found ->
        add tbl node family (Printf.sprintf "node%d.%s" node tag)
  in
  let table () = Hashtbl.create 16 in
  let queues = table () and pools = table () and switches = table () in
  let paused = table () and pause_tx = table () and pause_rx = table () in
  let windows = table () and sack_tx = table () and sack_rx = table () in
  let sent = table () and delivered = table () in
  let drops = table () and ecn = table () in
  let lats = table () (* dst node -> latencies *) in
  let msg_pending = Hashtbl.create 256 (* (src,dst,id,epoch) -> send ns *) in
  let latencies node =
    match Hashtbl.find lats node with
    | l -> l
    | exception Not_found ->
        let series tag =
          fresh "latency-quantile" (Printf.sprintf "node%d.%s" node tag)
        in
        let l =
          { sorted = Array.make 16 0.; n = 0; p50 = series "p50";
            p99 = series "p99"; p999 = series "p999" }
        in
        Hashtbl.add lats node l;
        l
  in
  Recorder.iter recorder (fun at ev ->
      match ev with
      | Probe.Span { host; track = Probe.Busy; start; finish; _ } ->
          (* A [Resource] is exclusive, so its spans never overlap; clip
             each to the bucket. *)
          let cells = cells busy host in
          let b0 = start / bucket_ns
          and b1 = min (nbuckets - 1) ((finish - 1) / bucket_ns) in
          for b = b0 to b1 do
            let lo = max start (b * bucket_ns)
            and hi = min finish ((b + 1) * bucket_ns) in
            if hi > lo then cells.(b) <- cells.(b) + (hi - lo)
          done
      | Probe.Irq { host } ->
          let cells = cells irqs host in
          let b = min (nbuckets - 1) (at / bucket_ns) in
          cells.(b) <- cells.(b) + 1
      | Probe.Queue_depth { queue; depth } ->
          push (named queues queue "queue-depth" "") at (float_of_int depth)
      | Probe.Window { chan; node; peer; outstanding; _ } ->
          push
            (of_chan windows "channel-window" chan node peer "")
            at (float_of_int outstanding)
      | Probe.Pool_alloc { pool; used; _ } | Probe.Pool_free { pool; used; _ }
        ->
          push (named pools pool "pool-bytes" "") at (float_of_int used)
      | Probe.Msg_send { node; dst; msg_id; epoch; _ } ->
          Hashtbl.replace msg_pending (node, dst, msg_id, epoch) at;
          bump (of_node sent "msg-count" node "sent") at
      | Probe.Msg_deliver { node; src; msg_id; epoch; _ } -> (
          bump (of_node delivered "msg-count" node "delivered") at;
          let key = (src, node, msg_id, epoch) in
          match Hashtbl.find msg_pending key with
          | exception Not_found -> ()
          | t0 ->
              Hashtbl.remove msg_pending key;
              let l = latencies node in
              add_latency l (float_of_int (at - t0) /. 1e3);
              push l.p50 at (quantile l 50.);
              push l.p99 at (quantile l 99.);
              push l.p999 at (quantile l 99.9))
      | Probe.Switch_buffer { switch; occupied; _ } ->
          push (named switches switch "switch-buffer" "") at
            (float_of_int occupied)
      | Probe.Switch_drop { switch; port; ingress; _ } ->
          let key = (switch, port, ingress) in
          bump
            (match Hashtbl.find drops key with
            | s -> s
            | exception Not_found ->
                add drops key "switch-drop"
                  (Printf.sprintf "%s.port%d.%s" switch port
                     (if ingress then "ingress" else "egress")))
            at
      | Probe.Pause_state { host; paused = p } ->
          push (named paused host "pause" ".state") at (if p then 1. else 0.)
      | Probe.Pause_frame { host; sent = true; _ } ->
          bump (named pause_tx host "pause" ".tx") at
      | Probe.Pause_frame { host; sent = false; _ } ->
          bump (named pause_rx host "pause" ".rx") at
      | Probe.Ecn_mark { switch; port; _ } ->
          let key = (switch, port) in
          bump
            (match Hashtbl.find ecn key with
            | s -> s
            | exception Not_found ->
                add ecn key "ecn-mark" (Printf.sprintf "%s.port%d" switch port))
            at
      | Probe.Sack_tx { chan; node; peer; _ } ->
          bump (of_chan sack_tx "sack" chan node peer ".tx") at
      | Probe.Sack_rx { chan; node; peer; _ } ->
          bump (of_chan sack_rx "sack" chan node peer ".rx") at
      | _ -> ());
  let bucketed family kind unit value tbl acc =
    Hashtbl.fold
      (fun host cells acc ->
        {
          s_name = family host ^ "/" ^ host;
          s_kind = kind;
          s_unit = unit;
          s_points =
            List.init nbuckets (fun b -> ((b + 1) * bucket_ns, value cells.(b)));
        }
        :: acc)
      tbl acc
  in
  let util_family host =
    match Report.Stages.node_of host with
    | Some _ when String.starts_with ~prefix:"cpu" host -> "cpu-utilization"
    | _ -> "bus-utilization"
  in
  let per_s = 1e9 /. float_of_int bucket_ns in
  let series =
    List.map
      (fun s ->
        {
          s_name = s.a_name;
          s_kind = s.a_kind;
          s_unit = s.a_unit;
          s_points = List.rev s.a_points;
        })
      !all
    |> bucketed util_family Gauge "fraction"
         (fun busy -> float_of_int busy /. float_of_int bucket_ns)
         busy
    |> bucketed (fun _ -> "irq-rate") Rate "irq/s"
         (fun hits -> float_of_int hits *. per_s)
         irqs
    |> List.sort (fun a b -> String.compare a.s_name b.s_name)
  in
  { bucket_ns; series }

(* ------------------------------------------------------------------ *)
(* Exports *)

let families t =
  List.map
    (fun s ->
      match String.index_opt s.s_name '/' with
      | Some i -> String.sub s.s_name 0 i
      | None -> s.s_name)
    t.series
  |> List.sort_uniq compare

(* The C conversion [Printf]'s ["%.6f"] runs, without the format
   interpreter's per-call allocation; the bytes are the same by
   construction. *)
external format_float : string -> float -> string = "caml_format_float"

let to_csv t =
  let buf = Buffer.create (1 lsl 14) in
  Buffer.add_string buf "series,kind,unit,t_ns,value\n";
  List.iter
    (fun s ->
      (* The series' own columns once, then each point's two. *)
      let prefix = String.concat "," [ s.s_name; kind_name s.s_kind; s.s_unit; "" ] in
      List.iter
        (fun (at, v) ->
          Buffer.add_string buf prefix;
          Buffer.add_string buf (string_of_int at);
          Buffer.add_char buf ',';
          Buffer.add_string buf (format_float "%.6f" v);
          Buffer.add_char buf '\n')
        s.s_points)
    t.series;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create (1 lsl 14) in
  Printf.bprintf buf "{\"bucket_ns\":%d,\"series\":[\n" t.bucket_ns;
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":\"%s\",\"kind\":\"%s\",\"unit\":\"%s\",\"points\":["
        s.s_name (kind_name s.s_kind) s.s_unit;
      List.iteri
        (fun j (at, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "[%d,%.6f]" at v)
        s.s_points;
      Buffer.add_string buf "]}")
    t.series;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let pp_summary fmt t =
  Format.fprintf fmt "%d series over %d families (bucket %dns):@."
    (List.length t.series)
    (List.length (families t))
    t.bucket_ns;
  List.iter
    (fun s ->
      let n = List.length s.s_points in
      let last = match List.rev s.s_points with (_, v) :: _ -> v | [] -> 0. in
      let peak =
        List.fold_left (fun acc (_, v) -> Float.max acc v) 0. s.s_points
      in
      Format.fprintf fmt "  %-40s %-7s %4d pts  last %10.3f  peak %10.3f@."
        s.s_name (kind_name s.s_kind) n last peak)
    t.series
