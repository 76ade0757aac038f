open Engine

(* Shared-buffer provisioning.  Every buffered frame is charged twice: to
   the egress queue it waits in (per-port reserve first, then the shared
   pool) and to the ingress port it arrived on (driving 802.3x PAUSE
   generation against that port's station). *)
type buffer = {
  total_bytes : int;
  port_reserve_bytes : int;
  ingress_high_bytes : int;
  ingress_low_bytes : int;
  pause : bool;
  ecn_threshold : int;
}

let default_buffer =
  {
    total_bytes = 256 * 1024;
    port_reserve_bytes = 8 * 1024;
    ingress_high_bytes = 16 * 1024;
    ingress_low_bytes = 8 * 1024;
    pause = true;
    ecn_threshold = 0;
  }

(* A full standard frame in the buffer (header, 1500-byte payload, CRC):
   the unit [protected_provisioning] sizes in-flight spill with. *)
let max_frame_bytes = 1518

let validate_buffer b =
  if b.total_bytes <= 0 then invalid_arg "Switch: buffer total_bytes <= 0";
  if b.port_reserve_bytes < 0 then
    invalid_arg "Switch: buffer port_reserve_bytes < 0";
  if b.ingress_high_bytes <= 0 then
    invalid_arg "Switch: buffer ingress_high_bytes <= 0";
  if b.ingress_low_bytes < 0 || b.ingress_low_bytes > b.ingress_high_bytes
  then invalid_arg "Switch: buffer ingress_low_bytes out of range";
  if b.ecn_threshold < 0 then invalid_arg "Switch: buffer ecn_threshold < 0"

(* Ports come in two kinds sharing one record: station ports ([node] >= 0,
   the node id) and trunk ports toward a peer switch ([node] < 0, a
   per-switch unique pid; [label] names the peer).  Both directions of a
   trunk are real {!Link}s, so serialization, propagation, faults, PAUSE
   and the buffer ledger all behave identically on trunks and stations.

   A port names another by its [index] in the switch's [ports]; the
   per-frame path allocates nothing but a CE-marked copy.  A frame received
   on a port waits out the forwarding latency in [arrived], whose one
   thunk [forward_next] pops it: every frame of a port is posted with the
   same delay, in arrival order, so the pops follow arrival order.  The
   egress FIFO keeps each frame's ingress index in the parallel ring
   [fifo_ingress].  A data frame goes to the downlink only when the wire
   is idle ([wire_count = 0]), so at most one is on it, and two fields
   hold its ledger charge until its serialization ends. *)
type port = {
  node : int;  (* pid: station = node id; trunk = -(trunk ordinal) *)
  index : int;  (* position in the switch's [ports] *)
  label : string;  (* "n<id>" for stations, the peer switch name for trunks *)
  uplink : Link.t;
  downlink : Link.t;
  arrived : Eth_frame.t Ring.t;  (* received, forwarding latency pending *)
  forward_next : unit -> unit;  (* forwards the head of [arrived] *)
  fifo : Eth_frame.t Ring.t;  (* egress FIFO *)
  fifo_ingress : int Ring.t;  (* ingress index of each [fifo] frame *)
  fifo_name : string;  (* [fifo]'s name in [Queue_depth] probes *)
  mutable wire_charged : int;  (* buffer bytes of the data frame on the wire *)
  mutable wire_ingress : int;  (* its ingress index *)
  mutable wire_count : int;  (* frames handed to the downlink, ser pending *)
  mutable tx_frames : int;  (* data frames transmitted on the downlink *)
  mutable egress_bytes : int;  (* buffered bytes queued toward this port *)
  mutable ingress_bytes : int;  (* buffered bytes received from this port *)
  mutable paused_rx : bool;  (* we have XOFFed this port's peer *)
  mutable xoff_at : Time.t;
  mutable tx_paused_until : Time.t;  (* peer has PAUSEd this egress *)
  mutable stalled_until : Time.t;  (* gray failure: egress pump stalled *)
  mutable resume : Sim.handle option;
  mutable gate_start : Time.t;
  mutable egress_paused_ns : int;
  mutable ingress_drops : int;
  mutable egress_drops : int;
}

type t = {
  sim : Sim.t;
  name : string;
  bits_per_s : float;
  fault : unit -> Fault.t;
  egress_frames : int option;
  ingress_frames : int option;
  buffer : buffer option;
  mutable ports : port array;  (* in the order they were added *)
  mutable stations : int array;  (* node id -> port index, -1: none *)
  mutable routes : port array array;  (* node id -> ECMP trunk set *)
  mutable trunk_count : int;
  mutable down : bool;
  mutable shared_used : int;
  mutable occupied : int;
  mutable peak_occupied : int;
  mutable frames_forwarded : int;
  mutable frames_flooded : int;
  mutable frames_unroutable : int;
  mutable down_drops : int;
  mutable pause_frames_tx : int;
  mutable pause_frames_rx : int;
  mutable ecn_marked : int;
  mutable egress_stalls : int;
  mutable egress_stall_ns : int;
}

(* Lookup plus internal transfer, paid by every frame a switch forwards. *)
let forward_latency = Time.us 2.

(* Propagation delay of every station and trunk link. *)
let propagation = Time.ns 500

let create sim ~name ~bits_per_s ?(fault = fun () -> Fault.none)
    ?egress_frames ?ingress_frames ?buffer () =
  (match ingress_frames with
  | Some n when n <= 0 -> invalid_arg "Switch.create: ingress_frames <= 0"
  | _ -> ());
  Option.iter validate_buffer buffer;
  {
    sim;
    name;
    bits_per_s;
    fault;
    egress_frames;
    ingress_frames;
    buffer;
    ports = [||];
    stations = [||];
    routes = [||];
    trunk_count = 0;
    down = false;
    shared_used = 0;
    occupied = 0;
    peak_occupied = 0;
    frames_forwarded = 0;
    frames_flooded = 0;
    frames_unroutable = 0;
    down_drops = 0;
    pause_frames_tx = 0;
    pause_frames_rx = 0;
    ecn_marked = 0;
    egress_stalls = 0;
    egress_stall_ns = 0;
  }

let n_ports t = Array.length t.ports

(* The index of [node]'s station port, or -1. *)
let station t node =
  if node >= 0 && node < Array.length t.stations then t.stations.(node)
  else -1

(* [node]'s ECMP trunk set, empty when no route names it. *)
let route t node =
  if node >= 0 && node < Array.length t.routes then t.routes.(node) else [||]

let shared_capacity t b =
  b.total_bytes - (n_ports t * b.port_reserve_bytes)

(* With PAUSE on, bounded uplink queues and enough shared buffer to absorb
   every port's worst case — its ingress high watermark plus the frames
   already committed to the wire and uplink FIFO when the XOFF lands — the
   switch guarantees zero loss.  Drops under this provisioning are flagged
   so the zero-loss invariant monitor can convict them.  The proof is
   per-switch and does not compose across trunks (an XOFFed trunk shifts
   the backlog upstream rather than bounding it), so any trunked switch is
   never claimed protected. *)
let protected_provisioning t =
  match (t.buffer, t.ingress_frames) with
  | Some b, Some limit when b.pause && t.trunk_count = 0 ->
      let n = n_ports t in
      n * (b.ingress_high_bytes + ((limit + 3) * max_frame_bytes))
      + max_frame_bytes
      <= shared_capacity t b
  | _ -> false

let probe_buffer t port delta =
  match t.buffer with
  | Some b when !Probe.on ->
      Probe.emit
        (Probe.Switch_buffer
           {
             switch = t.name;
             port;
             delta;
             occupied = t.occupied;
             total = b.total_bytes;
           })
  | _ -> ()

let probe_drop t port ~ingress =
  if !Probe.on then
    Probe.emit
      (Probe.Switch_drop
         { switch = t.name; port; ingress; protected = protected_provisioning t })

let probe_fifo t p =
  match t.buffer with
  | Some _ when !Probe.on ->
      Probe.emit
        (Probe.Queue_depth
           {
             queue = p.fifo_name;
             depth = Ring.length p.fifo;
           })
  | _ -> ()

let probe_pause_frame t p ~sent ~quanta =
  if !Probe.on then
    Probe.emit
      (Probe.Pause_frame
         {
           host =
             Printf.sprintf "%s%s%s" t.name (if sent then "->" else "<-")
               p.label;
           sent;
           quanta;
         })

(* MAC-control transmission bypasses the egress FIFO and the buffer ledger
   (control frames live in reserved control buffers); it still occupies the
   wire, so it shares [wire_count] with data frames. *)
let send_pause t p ~quanta =
  let frame = Mac_control.pause ~src:Mac.flow_control ~quanta in
  t.pause_frames_tx <- t.pause_frames_tx + 1;
  probe_pause_frame t p ~sent:true ~quanta;
  p.wire_count <- p.wire_count + 1;
  Link.send p.downlink frame

(* Ingress-side PAUSE generation: XOFF once the port's buffered bytes cross
   the high watermark, refreshed while frames keep landing from a paused
   port (the first XOFF races frames already in flight), XON at the low
   watermark.  On a trunk port the XOFF lands on the upstream switch's
   egress pump, so congestion propagates hop by hop toward the sources. *)
let maybe_xoff t b q =
  if b.pause then
    if not q.paused_rx then begin
      if q.ingress_bytes >= b.ingress_high_bytes then begin
        q.paused_rx <- true;
        q.xoff_at <- Sim.now t.sim;
        send_pause t q ~quanta:Mac_control.max_quanta
      end
    end
    else begin
      let span =
        Mac_control.span_of_quanta ~bits_per_s:t.bits_per_s
          Mac_control.max_quanta
      in
      if Sim.now t.sim - q.xoff_at >= span / 2 then begin
        q.xoff_at <- Sim.now t.sim;
        send_pause t q ~quanta:Mac_control.max_quanta
      end
    end

let maybe_xon t b q =
  if b.pause && q.paused_rx && q.ingress_bytes <= b.ingress_low_bytes then begin
    q.paused_rx <- false;
    send_pause t q ~quanta:0
  end

let egress_gated t p = Sim.now t.sim < p.tx_paused_until
let egress_stalled t p = Sim.now t.sim < p.stalled_until

(* Release one frame's ledger charges: [charged] bytes queued toward [p]
   from the port at index [ingress]. *)
let release t b p charged ingress =
  let r = b.port_reserve_bytes in
  let extra_shared =
    max 0 (p.egress_bytes - r) - max 0 (p.egress_bytes - charged - r)
  in
  p.egress_bytes <- p.egress_bytes - charged;
  t.shared_used <- t.shared_used - extra_shared;
  t.occupied <- t.occupied - charged;
  probe_buffer t p.node (-charged);
  let q = t.ports.(ingress) in
  q.ingress_bytes <- q.ingress_bytes - charged

let[@clic.hot] rec pump_port t p =
  if
    (not t.down) && p.wire_count = 0
    && (not (egress_gated t p))
    && (not (egress_stalled t p))
    && not (Ring.is_empty p.fifo)
  then begin
    let frame = Ring.pop p.fifo in
    p.wire_ingress <- Ring.pop p.fifo_ingress;
    probe_fifo t p;
    p.wire_charged <-
      (match t.buffer with
      | Some _ -> Eth_frame.buffer_bytes frame
      | None -> 0);
    p.wire_count <- p.wire_count + 1;
    p.tx_frames <- p.tx_frames + 1;
    Link.send p.downlink frame
  end

(* Downlink serialization finished: free the frame's buffer bytes (both
   ledgers), possibly XON its ingress port, and feed the next frame. *)
and[@clic.hot] on_tx_complete t p frame =
  p.wire_count <- p.wire_count - 1;
  if not (Mac_control.is_mac_control frame) then begin
    let charged = p.wire_charged in
    p.wire_charged <- 0;
    match t.buffer with
    | Some b when charged > 0 ->
        release t b p charged p.wire_ingress;
        if not t.down then maybe_xon t b t.ports.(p.wire_ingress)
    | _ -> ()
  end;
  pump_port t p

(* Admission control for one frame headed to egress port [p] from the port
   at index [ingress].  Returns [true] when the frame was accepted (and, in
   buffered mode, charged to both ledgers). *)
let[@clic.hot] admit t ~ingress p frame =
  let tail_full =
    match t.egress_frames with
    | Some cap -> Ring.length p.fifo >= cap
    | None -> false
  in
  if tail_full then begin
    p.egress_drops <- p.egress_drops + 1;
    probe_drop t p.node ~ingress:false;
    false
  end
  else
    match t.buffer with
    | None -> true
    | Some b ->
        let charged = Eth_frame.buffer_bytes frame in
        let r = b.port_reserve_bytes in
        let extra_shared =
          max 0 (p.egress_bytes + charged - r) - max 0 (p.egress_bytes - r)
        in
        if t.shared_used + extra_shared > shared_capacity t b then begin
          p.egress_drops <- p.egress_drops + 1;
          probe_drop t p.node ~ingress:false;
          false
        end
        else begin
          p.egress_bytes <- p.egress_bytes + charged;
          t.shared_used <- t.shared_used + extra_shared;
          t.occupied <- t.occupied + charged;
          if t.occupied > t.peak_occupied then t.peak_occupied <- t.occupied;
          probe_buffer t p.node charged;
          let q = t.ports.(ingress) in
          q.ingress_bytes <- q.ingress_bytes + charged;
          maybe_xoff t b q;
          true
        end

let[@clic.hot] enqueue t p ~ingress frame =
  Ring.push p.fifo frame;
  Ring.push p.fifo_ingress ingress;
  probe_fifo t p;
  pump_port t p

(* ECN marking, checked after admission so the egress ledger already
   includes the frame being enqueued: once the per-egress backlog reaches
   the configured threshold, the switch sets the frame's CE bit (modelling
   an in-flight rewrite of the carried protocol header).  Marking instead
   of dropping or PAUSEing is the whole point — the congestion signal
   reaches the sender while the frame still reaches the receiver. *)
let[@clic.hot] maybe_mark_ce t p frame =
  match t.buffer with
  | Some b
    when b.ecn_threshold > 0
         && p.egress_bytes >= b.ecn_threshold
         && not frame.Eth_frame.ce ->
      t.ecn_marked <- t.ecn_marked + 1;
      if !Probe.on then
        Probe.emit
          (Probe.Ecn_mark
             {
               switch = t.name;
               port = p.node;
               occupied = p.egress_bytes;
               threshold = b.ecn_threshold;
             });
      ({ frame with Eth_frame.ce = true }
      [@clic.alloc_ok "CE-marked copy: ECN-marking buffers only"])
  | _ -> frame

(* Deterministic flow hash for ECMP: frames of one (src, dst) flow always
   pick the same member of an equal-cost trunk set, so per-flow ordering
   survives multipath. *)
let flow_hash ~src ~dst n =
  let h = (src * 0x9e3779b1) lxor (dst * 0x85ebca6b) in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 in
  let h = h lxor (h lsr 16) in
  (h land max_int) mod n

let flood t ~ingress frame =
  for i = 0 to Array.length t.ports - 1 do
    if i <> ingress then begin
      let port = t.ports.(i) in
      t.frames_flooded <- t.frames_flooded + 1;
      if admit t ~ingress port frame then
        enqueue t port ~ingress (maybe_mark_ce t port frame)
    end
  done

let[@clic.hot] unicast t ~ingress port frame =
  t.frames_forwarded <- t.frames_forwarded + 1;
  if admit t ~ingress port frame then
    enqueue t port ~ingress (maybe_mark_ce t port frame)

(* A group-addressed frame floods from a station port, and from a trunk
   only when that trunk is this switch's way back to the frame's source
   (its station port, else the first trunk of its route set): the
   reverse-path check of 802.1aq.  Over shortest-path routes the copies
   that pass form a tree rooted at the source's switch, so each switch
   floods a frame at most once and nothing loops. *)
let floods t ~ingress frame =
  t.ports.(ingress).node >= 0
  ||
  match frame.Eth_frame.src with
  | Mac.Node s ->
      let set = route t s in
      station t s < 0 && Array.length set > 0 && set.(0).index = ingress
  | Mac.Broadcast | Mac.Multicast _ -> false

(* Forwarding decision for unicast, in priority order: local station
   port, static ECMP route, unroutable.  Group-addressed frames flood
   along the reverse-path tree ([floods]). *)
let[@clic.hot] forward t ~ingress frame =
  if t.down then t.down_drops <- t.down_drops + 1
  else
    match frame.Eth_frame.dst with
    | Mac.Node node ->
        let local = station t node in
        if local >= 0 then unicast t ~ingress t.ports.(local) frame
        else begin
          let set = route t node in
          if Array.length set = 0 then
            t.frames_unroutable <- t.frames_unroutable + 1
          else begin
            let src =
              match frame.Eth_frame.src with
              | Mac.Node s -> s
              | Mac.Broadcast | Mac.Multicast _ -> 0
            in
            let n = Array.length set in
            unicast t ~ingress set.(flow_hash ~src ~dst:node n) frame
          end
        end
    | Mac.Broadcast | Mac.Multicast _ ->
        if floods t ~ingress frame then flood t ~ingress frame

let[@clic.hot] forward_arrived t p =
  forward t ~ingress:p.index (Ring.pop p.arrived)

(* A peer PAUSEd us: gate that port's egress pump for the quanta (the
   frame already on the wire finishes), resuming early on XON. *)
let on_pause_rx t p ~quanta =
  t.pause_frames_rx <- t.pause_frames_rx + 1;
  probe_pause_frame t p ~sent:false ~quanta;
  Option.iter Sim.cancel p.resume;
  p.resume <- None;
  let now = Sim.now t.sim in
  if quanta = 0 then begin
    if egress_gated t p then
      p.egress_paused_ns <- p.egress_paused_ns + (now - p.gate_start);
    p.tx_paused_until <- now;
    pump_port t p
  end
  else begin
    if not (egress_gated t p) then p.gate_start <- now;
    let span = Mac_control.span_of_quanta ~bits_per_s:t.bits_per_s quanta in
    p.tx_paused_until <- now + span;
    p.resume <-
      Some
        (Sim.schedule t.sim ~after:span (fun () ->
             p.resume <- None;
             p.egress_paused_ns <-
               p.egress_paused_ns + (Sim.now t.sim - p.gate_start);
             pump_port t p))
  end

let[@clic.hot] on_ingress t p frame =
  if t.down then t.down_drops <- t.down_drops + 1
  else
    match Mac_control.quanta_of frame with
    | Some quanta -> on_pause_rx t p ~quanta
    | None ->
        (* Store-and-forward: the frame is fully received (the uplink's
           serialization already accounts for that) and admitted to the
           buffer now; lookup plus internal transfer take the forwarding
           latency before it joins the egress queue. *)
        Ring.push p.arrived frame;
        Sim.post t.sim ~after:forward_latency p.forward_next

let check_reserves t what =
  match t.buffer with
  | Some b when (n_ports t + 1) * b.port_reserve_bytes >= b.total_bytes ->
      invalid_arg (what ^ ": port reserves exceed the shared buffer")
  | _ -> ()

(* Appends a port to [t.ports]. *)
let add t ~node ~label ~uplink ~downlink =
  let rec port =
    {
      node;
      index = Array.length t.ports;
      label;
      uplink;
      downlink;
      arrived = Ring.create Eth_frame.filler;
      forward_next = (fun () -> forward_arrived t port);
      fifo = Ring.create Eth_frame.filler;
      fifo_ingress = Ring.create 0;
      fifo_name = Printf.sprintf "%s->%s:fifo" t.name label;
      wire_charged = 0;
      wire_ingress = 0;
      wire_count = 0;
      tx_frames = 0;
      egress_bytes = 0;
      ingress_bytes = 0;
      paused_rx = false;
      xoff_at = 0;
      tx_paused_until = 0;
      stalled_until = 0;
      resume = None;
      gate_start = 0;
      egress_paused_ns = 0;
      ingress_drops = 0;
      egress_drops = 0;
    }
  in
  t.ports <- Array.append t.ports [| port |];
  port

(* [a.(i) <- v], first growing [a] (filled with [empty]) to hold index
   [i]. *)
let set_grown a i v ~empty =
  let a =
    if i < Array.length a then a
    else begin
      let n = Array.length a in
      let grown = Array.make (max (i + 1) (2 * n)) empty in
      Array.blit a 0 grown 0 n;
      grown
    end
  in
  a.(i) <- v;
  a

let add_port t ~node =
  if node < 0 then invalid_arg "Switch.add_port: negative node";
  if station t node >= 0 then
    invalid_arg (Printf.sprintf "Switch.add_port: duplicate node %d" node);
  check_reserves t "Switch.add_port";
  let uplink =
    Link.create t.sim
      ~name:(Printf.sprintf "%s<-n%d" t.name node)
      ~bits_per_s:t.bits_per_s ~propagation ~fault:(t.fault ())
      ?queue_limit:t.ingress_frames ()
  in
  let downlink =
    Link.create t.sim
      ~name:(Printf.sprintf "%s->n%d" t.name node)
      ~bits_per_s:t.bits_per_s ~propagation ~fault:(t.fault ())
      ()
  in
  let port =
    add t ~node ~label:(Printf.sprintf "n%d" node) ~uplink ~downlink
  in
  t.stations <- set_grown t.stations node port.index ~empty:(-1);
  Link.connect uplink (fun frame -> on_ingress t port frame);
  Link.set_on_drop uplink (fun _frame ->
      port.ingress_drops <- port.ingress_drops + 1;
      probe_drop t node ~ingress:true);
  Link.set_tx_complete downlink (fun frame -> on_tx_complete t port frame)

let find_trunk t peer =
  Array.find_opt (fun p -> p.node < 0 && p.label = peer) t.ports

(* A trunk is one full-duplex switch-to-switch pair: each side owns a port
   whose downlink is its transmit direction and whose uplink is the peer's
   downlink.  PAUSE frames sent on a trunk downlink land in the peer's
   MAC-control path and gate the peer's egress toward us, which is exactly
   how congestion trees form across a fabric. *)
let add_trunk ?bits_per_s a b =
  if a.sim != b.sim then invalid_arg "Switch.add_trunk: different sims";
  if a == b then invalid_arg "Switch.add_trunk: self-trunk";
  List.iter
    (fun (t, peer) ->
      if find_trunk t peer.name <> None then
        invalid_arg
          (Printf.sprintf "Switch.add_trunk: duplicate trunk %s=>%s" t.name
             peer.name);
      check_reserves t "Switch.add_trunk")
    [ (a, b); (b, a) ];
  let rate = Option.value bits_per_s ~default:a.bits_per_s in
  let mk_link t peer =
    Link.create t.sim
      ~name:(Printf.sprintf "%s=>%s" t.name peer.name)
      ~bits_per_s:rate ~propagation ~fault:(t.fault ()) ()
  in
  let la = mk_link a b and lb = mk_link b a in
  let mk_port t peer ~uplink ~downlink =
    t.trunk_count <- t.trunk_count + 1;
    add t ~node:(-t.trunk_count) ~label:peer.name ~uplink ~downlink
  in
  let pa = mk_port a b ~uplink:lb ~downlink:la in
  let pb = mk_port b a ~uplink:la ~downlink:lb in
  Link.connect la (fun frame -> on_ingress b pb frame);
  Link.connect lb (fun frame -> on_ingress a pa frame);
  Link.set_tx_complete la (fun frame -> on_tx_complete a pa frame);
  Link.set_tx_complete lb (fun frame -> on_tx_complete b pb frame)

let get_port t node =
  let i = station t node in
  if i < 0 then invalid_arg (Printf.sprintf "Switch: unknown node %d" node)
  else t.ports.(i)

let get_trunk t ~what peer =
  match find_trunk t peer with
  | Some p -> p
  | None ->
      invalid_arg (Printf.sprintf "%s: %s has no trunk to %s" what t.name peer)

let set_route t ~dst ~via =
  if dst < 0 then invalid_arg "Switch.set_route: negative node";
  let set =
    Array.of_list (List.map (get_trunk t ~what:"Switch.set_route") via)
  in
  t.routes <- set_grown t.routes dst set ~empty:[||]

let clear_routes t = t.routes <- [||]

(* Power the switch down or back up.  Down: ingress is refused, egress
   FIFOs drain into thin air with their ledger charges released, PAUSE
   gates and pending XOFF state are cleared (upstream gates expire on
   their own quanta timers — a dead switch sends no XON).  Frames already
   mid-serialization finish on the wire.  Up: every pump restarts. *)
let set_down t flag =
  if t.down <> flag then begin
    t.down <- flag;
    if flag then
      Array.iter
        (fun p ->
          Option.iter Sim.cancel p.resume;
          p.resume <- None;
          let now = Sim.now t.sim in
          if egress_gated t p then begin
            p.egress_paused_ns <- p.egress_paused_ns + (now - p.gate_start);
            p.tx_paused_until <- now
          end;
          p.paused_rx <- false;
          (* The charges go without the XON side effect: a powered-off
             switch must not transmit. *)
          while not (Ring.is_empty p.fifo) do
            let frame = Ring.pop p.fifo in
            let ingress = Ring.pop p.fifo_ingress in
            match t.buffer with
            | Some b -> release t b p (Eth_frame.buffer_bytes frame) ingress
            | None -> ()
          done;
          probe_fifo t p)
        t.ports
    else Array.iter (fun p -> pump_port t p) t.ports
  end

let is_down t = t.down
let uplink t ~node = (get_port t node).uplink
let connect_node t ~node rx = Link.connect (get_port t node).downlink rx

let rewire_node t ~node rx = Link.reconnect (get_port t node).downlink rx

let ports t =
  List.filter_map
    (fun p -> if p.node >= 0 then Some p.node else None)
    (Array.to_list t.ports)

let trunks t =
  List.filter_map
    (fun p -> if p.node < 0 then Some p.label else None)
    (Array.to_list t.ports)

let trunk_tx_frames t ~peer =
  (get_trunk t ~what:"Switch.trunk_tx_frames" peer).tx_frames

let frames_forwarded t = t.frames_forwarded
let frames_flooded t = t.frames_flooded
let frames_unroutable t = t.frames_unroutable
let down_drops t = t.down_drops

let egress_drops t =
  Array.fold_left (fun acc p -> acc + p.egress_drops) 0 t.ports

let ingress_drops t =
  Array.fold_left (fun acc p -> acc + p.ingress_drops) 0 t.ports

let pause_frames_tx t = t.pause_frames_tx
let pause_frames_rx t = t.pause_frames_rx
let ecn_marked t = t.ecn_marked
let buffer_occupied t = t.occupied
let peak_buffer_occupied t = t.peak_occupied

let egress_paused_ns t =
  Array.fold_left (fun acc p -> acc + p.egress_paused_ns) 0 t.ports

(* Gray failure: an egress pump that intermittently stops serving its FIFO
   (a wedged scheduler pass, a firmware hiccup) while the rest of the
   switch keeps forwarding.  Unlike PAUSE gating this is invisible to the
   peer — no MAC control frame announces it — which is what makes it
   gray.  Frames already handed to the downlink finish serializing. *)
let inject_stall t ~node ~span =
  if span <= 0 then invalid_arg "Switch.inject_stall: span <= 0";
  let p = get_port t node in
  let now = Sim.now t.sim in
  let until_ = now + span in
  if until_ > p.stalled_until then begin
    let prev = if p.stalled_until > now then p.stalled_until else now in
    if not (egress_stalled t p) && !Probe.on then
      Probe.emit
        (Probe.Gray_fault
           { host = t.name ^ "/" ^ p.label; mode = "switch-stall";
             active = true });
    t.egress_stalls <- t.egress_stalls + 1;
    t.egress_stall_ns <- t.egress_stall_ns + (until_ - prev);
    p.stalled_until <- until_;
    ignore
      (Sim.schedule t.sim ~after:span (fun () ->
           if not (egress_stalled t p) then begin
             if !Probe.on then
               Probe.emit
                 (Probe.Gray_fault
                    { host = t.name ^ "/" ^ p.label; mode = "switch-stall";
                      active = false });
             pump_port t p
           end))
  end

let egress_stalls t = t.egress_stalls
let egress_stall_ns t = t.egress_stall_ns
let has_node t node = station t node >= 0
