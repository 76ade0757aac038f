(* Figure 7's stage split, for one packet or for every message of a run.

   The pass pairs three probe events per message — [Msg_send] (syscall
   entry), [Msg_deliver] (last fragment reassembled) and [Msg_recv] (copy
   to the receiver's user memory complete) — and charges the driver's
   and CLIC_MODULE's CPU spans to messages:

   - sender-side spans (module send, driver send) belong to the latest
     message the sender had entered at the span's start;
   - receiver-side spans (ISR, bottom half, module receive, copy to user)
     belong to the oldest message still in flight to that node —
     fragments are delivered in order, so interrupt-side work services
     the oldest undelivered message.

   Stage durations merge each stage's intervals disjointly, so a stage
   never exceeds wall-clock time.  With pipelined traffic the windows of
   consecutive messages overlap and shared batch work (one ISR draining
   several messages' fragments) is charged to the oldest message — totals
   stay exact per message, stage splits are an attribution, not a
   measurement. *)

open Engine

type t = {
  module_tx_us : float;
  driver_tx_us : float;
  transit_us : float;
  isr_us : float;
  bottom_half_us : float;
  module_rx_us : float;
  total_us : float;
}

type span = { stage : Probe.Stage.t; start : Time.t; finish : Time.t }

type side = Sender | Receiver

let side : Probe.Stage.t -> side option = function
  | Module_tx | Driver_tx -> Some Sender
  | Isr | Bottom_half | Module_rx | Copy_to_user -> Some Receiver
  | Poll | Dma | Frame | Paused | Busy -> None

type message = {
  src : int;
  dst : int;
  port : int;
  msg_id : int;
  bytes : int;
  t_send : int;
  t_deliver : int option;
  t_recv : int option;
  stages : t;
  spans : span list;
}

let us ns = float_of_int ns /. 1000.

(* By stage in declaration order, then by start, then by finish. *)
let compare_spans a b =
  let c = compare (a.stage : Probe.Stage.t) b.stage in
  if c <> 0 then c
  else
    let c = Int.compare a.start b.start in
    if c <> 0 then c else Int.compare a.finish b.finish

(* Each stage's merged length, from spans sorted by stage, then start:
   one sweep that extends the open interval while the next span of its
   stage overlaps (or abuts) it, and otherwise closes it out. *)
let lengths sorted =
  let rec sweep acc stage os of_ total = function
    | s :: rest when s.stage = stage && s.start <= of_ ->
        sweep acc stage os (max of_ s.finish) total rest
    | s :: rest ->
        let total = total + Time.diff of_ os in
        if s.stage = stage then sweep acc stage s.start s.finish total rest
        else sweep ((stage, total) :: acc) s.stage s.start s.finish 0 rest
    | [] -> (stage, total + Time.diff of_ os) :: acc
  in
  match sorted with
  | [] -> []
  | s :: rest -> sweep [] s.stage s.start s.finish 0 rest

let merged_length spans =
  List.fold_left
    (fun acc (_, l) -> acc + l)
    0
    (lengths (List.sort compare_spans spans))

(* Figure 7's split of a message's merged stage lengths.  The module
   upcall nests inside the driver stage that invoked it: the bottom half
   normally, the ISR in direct-from-ISR mode, where there is no
   bottom-half time.  Its time comes out of that stage, and transit is
   what the host stages leave of the total. *)
let split lengths ~total =
  let length (stage : Probe.Stage.t) =
    match List.assoc_opt stage lengths with Some l -> us l | None -> 0.
  in
  let module_tx = length Module_tx and driver_tx = length Driver_tx in
  let module_rx = length Module_rx +. length Copy_to_user in
  let isr, bottom_half =
    let isr = length Isr and bottom_half = length Bottom_half in
    if bottom_half > 0. then (isr, Float.max 0. (bottom_half -. module_rx))
    else (Float.max 0. (isr -. module_rx), 0.)
  in
  {
    module_tx_us = module_tx;
    driver_tx_us = driver_tx;
    transit_us =
      Float.max 0.
        (total -. module_tx -. driver_tx -. isr -. bottom_half -. module_rx);
    isr_us = isr;
    bottom_half_us = bottom_half;
    module_rx_us = module_rx;
    total_us = total;
  }

type acc = {
  m_src : int;
  m_dst : int;
  m_port : int;
  m_id : int;
  m_bytes : int;
  m_send : int;
  mutable m_deliver : int option;
  mutable m_recv : int option;
  mutable m_spans : span list;
}

let finish_message acc =
  let total =
    match (acc.m_recv, acc.m_deliver) with
    | Some e, _ | None, Some e -> us (e - acc.m_send)
    | None, None -> 0.
  in
  let spans = List.sort compare_spans acc.m_spans in
  {
    src = acc.m_src;
    dst = acc.m_dst;
    port = acc.m_port;
    msg_id = acc.m_id;
    bytes = acc.m_bytes;
    t_send = acc.m_send;
    t_deliver = acc.m_deliver;
    t_recv = acc.m_recv;
    stages = split (lengths spans) ~total;
    spans;
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
  Hashtbl.iter
    (fun n l -> Hashtbl.add arrays n (Array.of_list (List.rev l)))
    lists;
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

let is_digit c = c >= '0' && c <= '9'

let int_at s i =
  let n = String.length s in
  if i >= n || not (is_digit s.[i]) then None
  else begin
    let j = ref i in
    while !j < n && is_digit s.[!j] do incr j done;
    Some (int_of_string (String.sub s i (!j - i)))
  end

let after_prefix s p =
  if String.length s >= String.length p && String.sub s 0 (String.length p) = p
  then Some (String.length p)
  else None

(* Switch-port links attribute to the node on their far end; plain
   "switchN" resources (and anything unrecognized) have no node. *)
let node_of name =
  let from_port () =
    (* "...<-nK" or "...->nK" *)
    let n = String.length name in
    let rec find i =
      if i + 3 > n then None
      else if
        (String.sub name i 2 = "<-" || String.sub name i 2 = "->")
        && i + 2 < n
        && name.[i + 2] = 'n'
      then int_at name (i + 3)
      else find (i + 1)
    in
    find 0
  in
  let prefixed p = Option.bind (after_prefix name p) (int_at name) in
  match prefixed "cpu" with
  | Some n -> Some n
  | None -> (
      match prefixed "mem" with
      | Some n -> Some n
      | None -> (
          match prefixed "pci" with
          | Some n -> Some n
          | None -> (
              match prefixed "kmem" with
              | Some n -> Some n
              | None -> (
                  match prefixed "nic" with
                  | Some n -> Some n
                  | None -> from_port ()))))

let messages iter =
  let by_key = Hashtbl.create 64 in
  let order = ref [] in
  let nodes = Hashtbl.create 64 (* host -> node, -1 for the fabric *) in
  let node_of_host host =
    match Hashtbl.find nodes host with
    | n -> n
    | exception Not_found ->
        let n = Option.value (node_of host) ~default:(-1) in
        Hashtbl.add nodes host n;
        n
  in
  let pending = ref [] in
  (* One read of the events: the message population, its lifecycle
     stamps, and the spans to charge once it is complete. *)
  iter (fun at ev ->
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
              m_spans = [];
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
      | Probe.Span { host; stage; start; finish; _ } when side stage <> None ->
          let node = node_of_host host in
          if node >= 0 then
            pending := (node, { stage; start; finish }) :: !pending
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
  let pick node span =
    match side span.stage with
    | None -> None
    | Some Sender -> (
        match Hashtbl.find by_src node with
        | exception Not_found -> None
        | msgs ->
            let i =
              first (Array.length msgs) (fun i -> msgs.(i).m_send > span.start)
            in
            if i > 0 then Some msgs.(i - 1) else None)
    | Some Receiver -> (
        match Hashtbl.find by_dst node with
        | exception Not_found -> None
        | msgs, marks ->
            let i =
              first (Array.length msgs) (fun i -> marks.(i) >= span.start)
            in
            if i < Array.length msgs && msgs.(i).m_send <= span.start then
              Some msgs.(i)
            else None)
  in
  List.iter
    (fun (node, span) ->
      match pick node span with
      | Some acc -> acc.m_spans <- span :: acc.m_spans
      | None -> ())
    !pending;
  List.map finish_message order
