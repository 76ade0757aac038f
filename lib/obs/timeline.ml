(* Chrome trace-event / Perfetto exporter.

   Renders a recorded probe stream as a JSON object in the trace-event
   format (load in ui.perfetto.dev or chrome://tracing):

   - one process ("pid") per node, plus a shared fabric process for
     switch-internal resources;
   - one thread ("tid") per (host, track) pair — a CPU contributes
     separate process / ISR / bottom-half / CLIC-module / busy tracks, a
     NIC its DMA track, each switch port its wire track;
   - complete ("X") slices for [Probe.Span] activity;
   - instant ("i") events for interrupts and scheduler wake/block;
   - counter ("C") tracks for queue depths, channel windows, pool bytes;
   - flow arrows ("s"/"f") from each message's send syscall to its
     delivery upcall on the receiving node.

   Output is deterministic: events are emitted in recorded order,
   metadata in sorted order, timestamps formatted with fixed precision
   (trace-event "ts" is in microseconds; we keep nanosecond resolution as
   fractional digits). *)

open Engine

let fabric_pid = 1000

let pid_of_host host =
  match Host.node_of host with Some n -> n | None -> fabric_pid

let process_label pid =
  if pid = fabric_pid then "fabric" else "node" ^ string_of_int pid

(* Track sort order inside a node: flow of a packet top to bottom. *)
let track_rank = function
  | Probe.Process -> 0
  | Probe.Module -> 1
  | Probe.Isr -> 2
  | Probe.Bh_track -> 3
  | Probe.Dma -> 4
  | Probe.Link -> 5
  | Probe.Pause_t -> 6
  | Probe.Busy -> 7

(* Most strings (labels, host and queue names) need no escaping and are
   returned as they are. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let json_escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

module Key = struct
  type t = { pid : int; host : string; track : Probe.track }

  let compare a b =
    let c = Int.compare a.pid b.pid in
    if c <> 0 then c
    else
      let c = Int.compare (track_rank a.track) (track_rank b.track) in
      if c <> 0 then c else String.compare a.host b.host
end

module KeyMap = Map.Make (Key)

(* Message endpoints are named by node; their tracks live on its CPU. *)
let cpu_host node = "cpu" ^ string_of_int node

(* Thread ids: assigned per (host, track) in display order, so the
   Perfetto track list reads sender-to-receiver. *)
let assign_tids events =
  let keys = ref KeyMap.empty in
  let remember pid host track =
    let k = { Key.pid; host; track } in
    if not (KeyMap.mem k !keys) then keys := KeyMap.add k () !keys
  in
  List.iter
    (fun { Recorder.ev; _ } ->
      match ev with
      | Probe.Span { host; track; _ } -> remember (pid_of_host host) host track
      | Probe.Sched_run { host } | Probe.Sched_block { host } ->
          remember (pid_of_host host) host Probe.Process
      | Probe.Irq { host } -> remember (pid_of_host host) host Probe.Isr
      | Probe.Msg_send { node; _ } -> remember node (cpu_host node) Probe.Process
      | Probe.Msg_deliver { node; _ } ->
          remember node (cpu_host node) Probe.Module
      | _ -> ())
    events;
  let next = ref 0 in
  KeyMap.mapi
    (fun _ () ->
      incr next;
      !next)
    !keys

let tid_exn tids pid host track =
  KeyMap.find { Key.pid; host; track } tids

(* A message's flow id must be unique across the run; sender msg_ids are
   per-node counters, so fold the node in. *)
let flow_id ~src ~msg_id = (src * 1_000_000) + msg_id

(* The writer appends every event straight to one buffer: [{"name":...],
   then one [,"key":value] per field, then [},\n]. *)
let add_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (json_escape s);
  Buffer.add_char buf '"'

(* Decimal digits straight into the buffer, as [string_of_int] spells
   them; every integer written here is far from [min_int]. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (48 + (n mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (abs n)

(* Trace-event "ts" and "dur" are in microseconds; the nanoseconds stay as
   three fractional digits. *)
let add_us buf ns =
  if ns < 0 then Buffer.add_char buf '-';
  let ns = abs ns in
  let frac = ns mod 1000 in
  add_digits buf (ns / 1000);
  Buffer.add_char buf '.';
  Buffer.add_char buf (Char.chr (48 + (frac / 100)));
  Buffer.add_char buf (Char.chr (48 + (frac / 10 mod 10)));
  Buffer.add_char buf (Char.chr (48 + (frac mod 10)))

let open_event buf name =
  Buffer.add_string buf "{\"name\":";
  add_str buf name

let close_event buf = Buffer.add_string buf "},\n"

let key buf k =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":"

let str_field buf k v =
  key buf k;
  add_str buf v

let int_field buf k v =
  key buf k;
  add_int buf v

let us_field buf k ns =
  key buf k;
  add_us buf ns

(* ["args":{"k":v}], the last field of a metadata or counter event. *)
let args buf k add v =
  key buf "args";
  Buffer.add_string buf "{\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":";
  add buf v;
  Buffer.add_char buf '}'

let export recorder =
  let events = Recorder.events recorder in
  let tids = assign_tids events in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  (* Metadata: process and thread names, in sorted (deterministic) order. *)
  let meta ~name ~pid ?tid k add v =
    open_event buf name;
    str_field buf "ph" "M";
    int_field buf "pid" pid;
    Option.iter (int_field buf "tid") tid;
    args buf k add v;
    close_event buf
  in
  let pids =
    KeyMap.fold (fun k _ acc -> k.Key.pid :: acc) tids []
    |> List.sort_uniq compare
  in
  List.iter
    (fun pid ->
      meta ~name:"process_name" ~pid "name" add_str (process_label pid);
      meta ~name:"process_sort_index" ~pid "sort_index" add_int pid)
    pids;
  KeyMap.iter
    (fun k tid ->
      let pid = k.Key.pid in
      meta ~name:"thread_name" ~pid ~tid "name" add_str
        (k.Key.host ^ " " ^ Probe.track_name k.Key.track);
      meta ~name:"thread_sort_index" ~pid ~tid "sort_index" add_int tid)
    tids;
  let slice ~name ~cat ~pid ~tid ~start ~finish =
    open_event buf name;
    str_field buf "cat" cat;
    str_field buf "ph" "X";
    int_field buf "pid" pid;
    int_field buf "tid" tid;
    us_field buf "ts" start;
    us_field buf "dur" (finish - start);
    close_event buf
  in
  let instant ~name ~cat ~pid ~tid ~at =
    open_event buf name;
    str_field buf "cat" cat;
    str_field buf "ph" "i";
    str_field buf "s" "t";
    int_field buf "pid" pid;
    int_field buf "tid" tid;
    us_field buf "ts" at;
    close_event buf
  in
  (* The caller has opened the event with the counter's name. *)
  let counter ~pid ~at k v =
    str_field buf "ph" "C";
    int_field buf "pid" pid;
    us_field buf "ts" at;
    args buf k add_int v;
    close_event buf
  in
  let flow ~ph ~pid ~tid ~at ~id ?bp () =
    open_event buf "msg";
    str_field buf "cat" "flow";
    str_field buf "ph" ph;
    int_field buf "id" id;
    int_field buf "pid" pid;
    int_field buf "tid" tid;
    us_field buf "ts" at;
    Option.iter (str_field buf "bp") bp;
    close_event buf
  in
  List.iter
    (fun { Recorder.at; ev } ->
      match ev with
      | Probe.Span { host; track; label; start; finish } ->
          let pid = pid_of_host host in
          slice ~name:label
            ~cat:(Probe.track_name track)
            ~pid
            ~tid:(tid_exn tids pid host track)
            ~start ~finish
      | Probe.Irq { host } ->
          let pid = pid_of_host host in
          instant ~name:"irq" ~cat:"irq" ~pid
            ~tid:(tid_exn tids pid host Probe.Isr)
            ~at
      | Probe.Sched_run { host } ->
          let pid = pid_of_host host in
          instant ~name:"sched-run" ~cat:"sched" ~pid
            ~tid:(tid_exn tids pid host Probe.Process)
            ~at
      | Probe.Sched_block { host } ->
          let pid = pid_of_host host in
          instant ~name:"sched-block" ~cat:"sched" ~pid
            ~tid:(tid_exn tids pid host Probe.Process)
            ~at
      | Probe.Queue_depth { queue; depth } ->
          open_event buf queue;
          counter ~pid:(pid_of_host queue) ~at "depth" depth
      | Probe.Window { chan; node; peer; outstanding; _ } ->
          (* name: "chan<chan>:<node>-><peer> window" *)
          Buffer.add_string buf "{\"name\":\"chan";
          add_int buf chan;
          Buffer.add_char buf ':';
          add_int buf node;
          Buffer.add_string buf "->";
          add_int buf peer;
          Buffer.add_string buf " window\"";
          counter ~pid:node ~at "outstanding" outstanding
      | Probe.Pool_alloc { pool; used; _ } | Probe.Pool_free { pool; used; _ }
        ->
          open_event buf pool;
          counter ~pid:(pid_of_host pool) ~at "bytes" used
      | Probe.Msg_send { node; msg_id; _ } ->
          flow ~ph:"s" ~pid:node
            ~tid:(tid_exn tids node (cpu_host node) Probe.Process)
            ~at
            ~id:(flow_id ~src:node ~msg_id)
            ()
      | Probe.Msg_deliver { node; src; msg_id; _ } ->
          flow ~ph:"f" ~pid:node
            ~tid:(tid_exn tids node (cpu_host node) Probe.Module)
            ~at
            ~id:(flow_id ~src ~msg_id)
            ~bp:"e" ()
      | _ -> ())
    events;
  (* Closing metadata sentinel avoids trailing-comma bookkeeping. *)
  Buffer.add_string buf
    "{\"name\":\"clic-sim\",\"ph\":\"M\",\"pid\":0,\"args\":{}}\n]}\n";
  Buffer.contents buf
