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
  pause_quanta : int;
  max_frame_bytes : int;
  ecn_threshold : int;
}

let default_buffer =
  {
    total_bytes = 256 * 1024;
    port_reserve_bytes = 8 * 1024;
    ingress_high_bytes = 16 * 1024;
    ingress_low_bytes = 8 * 1024;
    pause = true;
    pause_quanta = Mac_control.max_quanta;
    max_frame_bytes = 1518;
    ecn_threshold = 0;
  }

let validate_buffer b =
  if b.total_bytes <= 0 then invalid_arg "Switch: buffer total_bytes <= 0";
  if b.port_reserve_bytes < 0 then
    invalid_arg "Switch: buffer port_reserve_bytes < 0";
  if b.ingress_high_bytes <= 0 then
    invalid_arg "Switch: buffer ingress_high_bytes <= 0";
  if b.ingress_low_bytes < 0 || b.ingress_low_bytes > b.ingress_high_bytes
  then invalid_arg "Switch: buffer ingress_low_bytes out of range";
  if b.pause_quanta <= 0 || b.pause_quanta > Mac_control.max_quanta then
    invalid_arg "Switch: buffer pause_quanta out of range";
  if b.max_frame_bytes <= 0 then
    invalid_arg "Switch: buffer max_frame_bytes <= 0";
  if b.ecn_threshold < 0 then invalid_arg "Switch: buffer ecn_threshold < 0"

(* Ports come in two kinds sharing one record: station ports ([node] >= 0,
   the node id) and trunk ports toward a peer switch ([node] < 0, a
   per-switch unique pid; [label] names the peer).  Both directions of a
   trunk are real {!Link}s, so serialization, propagation, faults, PAUSE
   and the buffer ledger all behave identically on trunks and stations. *)
type port = {
  node : int;  (* pid: station = node id; trunk = -(trunk ordinal) *)
  label : string;  (* "n<id>" for stations, the peer switch name for trunks *)
  uplink : Link.t;
  downlink : Link.t;
  fifo : (Eth_frame.t * int) Queue.t;  (* frame, ingress pid *)
  on_wire : (int * int) Queue.t;  (* charged bytes, ingress pid *)
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
  forward_latency : Time.span;
  propagation : Time.span;
  fault : unit -> Fault.t;
  egress_frames : int option;
  ingress_frames : int option;
  buffer : buffer option;
  learning : bool;
  ttl : int;
  fdb : (int, port) Hashtbl.t;  (* learned node -> port *)
  routes : (int, port array) Hashtbl.t;  (* static node -> ECMP trunk set *)
  mutable trunk_count : int;
  mutable down : bool;
  mutable port_list : port list;
  mutable shared_used : int;
  mutable occupied : int;
  mutable peak_occupied : int;
  mutable frames_forwarded : int;
  mutable frames_flooded : int;
  mutable frames_unroutable : int;
  mutable frames_ttl_dropped : int;
  mutable unknown_floods : int;
  mutable down_drops : int;
  mutable pause_frames_tx : int;
  mutable pause_frames_rx : int;
  mutable ecn_marked : int;
  mutable egress_stalls : int;
  mutable egress_stall_ns : int;
}

let create sim ~name ~bits_per_s ?(forward_latency = Time.us 2.)
    ?(propagation = Time.ns 500) ?(fault = fun () -> Fault.none)
    ?egress_frames ?ingress_frames ?buffer ?(learning = false) ?(ttl = 16) ()
    =
  (match ingress_frames with
  | Some n when n <= 0 -> invalid_arg "Switch.create: ingress_frames <= 0"
  | _ -> ());
  if ttl < 1 then invalid_arg "Switch.create: ttl < 1";
  Option.iter validate_buffer buffer;
  {
    sim;
    name;
    bits_per_s;
    forward_latency;
    propagation;
    fault;
    egress_frames;
    ingress_frames;
    buffer;
    learning;
    ttl;
    fdb = Hashtbl.create 16;
    routes = Hashtbl.create 16;
    trunk_count = 0;
    down = false;
    port_list = [];
    shared_used = 0;
    occupied = 0;
    peak_occupied = 0;
    frames_forwarded = 0;
    frames_flooded = 0;
    frames_unroutable = 0;
    frames_ttl_dropped = 0;
    unknown_floods = 0;
    down_drops = 0;
    pause_frames_tx = 0;
    pause_frames_rx = 0;
    ecn_marked = 0;
    egress_stalls = 0;
    egress_stall_ns = 0;
  }

let find_port t pid = List.find_opt (fun p -> p.node = pid) t.port_list
let n_ports t = List.length t.port_list

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
      n * (b.ingress_high_bytes + ((limit + 3) * b.max_frame_bytes))
      + b.max_frame_bytes
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
             queue = Printf.sprintf "%s->%s:fifo" t.name p.label;
             depth = Queue.length p.fifo;
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
        send_pause t q ~quanta:b.pause_quanta
      end
    end
    else begin
      let span =
        Mac_control.span_of_quanta ~bits_per_s:t.bits_per_s b.pause_quanta
      in
      if Sim.now t.sim - q.xoff_at >= span / 2 then begin
        q.xoff_at <- Sim.now t.sim;
        send_pause t q ~quanta:b.pause_quanta
      end
    end

let maybe_xon t b q =
  if b.pause && q.paused_rx && q.ingress_bytes <= b.ingress_low_bytes then begin
    q.paused_rx <- false;
    send_pause t q ~quanta:0
  end

let egress_gated t p = Sim.now t.sim < p.tx_paused_until
let egress_stalled t p = Sim.now t.sim < p.stalled_until

let rec pump_port t p =
  if
    (not t.down) && p.wire_count = 0
    && (not (egress_gated t p))
    && not (egress_stalled t p)
  then
    match Queue.take_opt p.fifo with
    | None -> ()
    | Some (frame, ingress_pid) ->
        probe_fifo t p;
        let charged =
          match t.buffer with
          | Some _ -> Eth_frame.buffer_bytes frame
          | None -> 0
        in
        Queue.add (charged, ingress_pid) p.on_wire;
        p.wire_count <- p.wire_count + 1;
        p.tx_frames <- p.tx_frames + 1;
        Link.send p.downlink frame

(* Downlink serialization finished: free the frame's buffer bytes (both
   ledgers), possibly XON its ingress port, and feed the next frame. *)
and on_tx_complete t p frame =
  p.wire_count <- p.wire_count - 1;
  if not (Mac_control.is_mac_control frame) then begin
    match Queue.take_opt p.on_wire with
    | Some (charged, ingress_pid) when charged > 0 -> (
        match t.buffer with
        | Some b ->
            let r = b.port_reserve_bytes in
            let extra_shared =
              max 0 (p.egress_bytes - r)
              - max 0 (p.egress_bytes - charged - r)
            in
            p.egress_bytes <- p.egress_bytes - charged;
            t.shared_used <- t.shared_used - extra_shared;
            t.occupied <- t.occupied - charged;
            probe_buffer t p.node (-charged);
            (match find_port t ingress_pid with
            | Some q ->
                q.ingress_bytes <- q.ingress_bytes - charged;
                if not t.down then maybe_xon t b q
            | None -> ())
        | None -> ())
    | _ -> ()
  end;
  pump_port t p

(* Admission control for one frame headed to egress port [p] from ingress
   pid [ingress].  Returns [true] when the frame was accepted (and, in
   buffered mode, charged to both ledgers). *)
let admit t ~ingress p frame =
  let tail_full =
    match t.egress_frames with
    | Some cap -> Queue.length p.fifo >= cap
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
          (match find_port t ingress with
          | Some q ->
              q.ingress_bytes <- q.ingress_bytes + charged;
              maybe_xoff t b q
          | None -> ());
          true
        end

let enqueue t p ~ingress frame =
  Queue.add (frame, ingress) p.fifo;
  probe_fifo t p;
  pump_port t p

(* ECN marking, checked after admission so the egress ledger already
   includes the frame being enqueued: once the per-egress backlog reaches
   the configured threshold, the switch sets the frame's CE bit (modelling
   an in-flight rewrite of the carried protocol header).  Marking instead
   of dropping or PAUSEing is the whole point — the congestion signal
   reaches the sender while the frame still reaches the receiver. *)
let maybe_mark_ce t p frame =
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
      { frame with Eth_frame.ce = true }
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
  List.iter
    (fun port ->
      if port.node <> ingress then begin
        t.frames_flooded <- t.frames_flooded + 1;
        if admit t ~ingress port frame then
          enqueue t port ~ingress (maybe_mark_ce t port frame)
      end)
    t.port_list

(* Forwarding decision, in priority order: local station port, static
   ECMP route, learned FDB entry, unknown-unicast flood (learning
   switches only), unroutable.  The hop count bounds any loop — static
   shortest-path routes are loop-free by construction, but flooding on a
   cyclic fabric is not, so the TTL is the backstop. *)
let forward t ~ingress frame =
  if t.down then t.down_drops <- t.down_drops + 1
  else if frame.Eth_frame.hops >= t.ttl then
    t.frames_ttl_dropped <- t.frames_ttl_dropped + 1
  else begin
    (if t.learning then
       match frame.Eth_frame.src with
       | Mac.Node src -> (
           match find_port t ingress with
           | Some q -> Hashtbl.replace t.fdb src q
           | None -> ())
       | Mac.Broadcast | Mac.Multicast _ -> ());
    let frame = { frame with Eth_frame.hops = frame.Eth_frame.hops + 1 } in
    match frame.Eth_frame.dst with
    | Mac.Node node -> (
        let unicast port =
          t.frames_forwarded <- t.frames_forwarded + 1;
          if admit t ~ingress port frame then
            enqueue t port ~ingress (maybe_mark_ce t port frame)
        in
        match find_port t node with
        | Some port -> unicast port
        | None -> (
            match Hashtbl.find_opt t.routes node with
            | Some arr ->
                let src =
                  match frame.Eth_frame.src with
                  | Mac.Node s -> s
                  | Mac.Broadcast | Mac.Multicast _ -> 0
                in
                unicast arr.(flow_hash ~src ~dst:node (Array.length arr))
            | None -> (
                match
                  if t.learning then Hashtbl.find_opt t.fdb node else None
                with
                | Some port -> unicast port
                | None ->
                    if t.learning then begin
                      t.unknown_floods <- t.unknown_floods + 1;
                      flood t ~ingress frame
                    end
                    else t.frames_unroutable <- t.frames_unroutable + 1)))
    | Mac.Broadcast | Mac.Multicast _ -> flood t ~ingress frame
  end

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

let on_ingress t p frame =
  if t.down then t.down_drops <- t.down_drops + 1
  else
    match Mac_control.quanta_of frame with
    | Some quanta -> on_pause_rx t p ~quanta
    | None ->
        (* Store-and-forward: the frame is fully received (the uplink's
           serialization already accounts for that) and admitted to the
           buffer now; lookup plus internal transfer take the forwarding
           latency before it joins the egress queue. *)
        Sim.post t.sim ~after:t.forward_latency (fun () ->
            forward t ~ingress:p.node frame)

let check_reserves t what =
  match t.buffer with
  | Some b when (n_ports t + 1) * b.port_reserve_bytes >= b.total_bytes ->
      invalid_arg (what ^ ": port reserves exceed the shared buffer")
  | _ -> ()

let blank_port ~node ~label ~uplink ~downlink =
  {
    node;
    label;
    uplink;
    downlink;
    fifo = Queue.create ();
    on_wire = Queue.create ();
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

let add_port t ~node =
  if node < 0 then invalid_arg "Switch.add_port: negative node";
  if find_port t node <> None then
    invalid_arg (Printf.sprintf "Switch.add_port: duplicate node %d" node);
  check_reserves t "Switch.add_port";
  let uplink =
    Link.create t.sim
      ~name:(Printf.sprintf "%s<-n%d" t.name node)
      ~bits_per_s:t.bits_per_s ~propagation:t.propagation ~fault:(t.fault ())
      ?queue_limit:t.ingress_frames ()
  in
  let downlink =
    Link.create t.sim
      ~name:(Printf.sprintf "%s->n%d" t.name node)
      ~bits_per_s:t.bits_per_s ~propagation:t.propagation ~fault:(t.fault ())
      ()
  in
  let port =
    blank_port ~node ~label:(Printf.sprintf "n%d" node) ~uplink ~downlink
  in
  Link.connect uplink (fun frame -> on_ingress t port frame);
  Link.set_on_drop uplink (fun _frame ->
      port.ingress_drops <- port.ingress_drops + 1;
      probe_drop t node ~ingress:true);
  Link.set_tx_complete downlink (fun frame -> on_tx_complete t port frame);
  t.port_list <- t.port_list @ [ port ]

let find_trunk t peer =
  List.find_opt (fun p -> p.node < 0 && p.label = peer) t.port_list

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
      ~bits_per_s:rate ~propagation:t.propagation ~fault:(t.fault ()) ()
  in
  let la = mk_link a b and lb = mk_link b a in
  let mk_port t peer ~uplink ~downlink =
    t.trunk_count <- t.trunk_count + 1;
    let port =
      blank_port ~node:(-t.trunk_count) ~label:peer.name ~uplink ~downlink
    in
    t.port_list <- t.port_list @ [ port ];
    port
  in
  let pa = mk_port a b ~uplink:lb ~downlink:la in
  let pb = mk_port b a ~uplink:la ~downlink:lb in
  Link.connect la (fun frame -> on_ingress b pb frame);
  Link.connect lb (fun frame -> on_ingress a pa frame);
  Link.set_tx_complete la (fun frame -> on_tx_complete a pa frame);
  Link.set_tx_complete lb (fun frame -> on_tx_complete b pb frame)

let get_port t node =
  match find_port t node with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Switch: unknown node %d" node)

let get_trunk t ~what peer =
  match find_trunk t peer with
  | Some p -> p
  | None ->
      invalid_arg (Printf.sprintf "%s: %s has no trunk to %s" what t.name peer)

let set_route t ~dst ~via =
  match via with
  | [] -> Hashtbl.remove t.routes dst
  | _ ->
      Hashtbl.replace t.routes dst
        (Array.of_list (List.map (get_trunk t ~what:"Switch.set_route") via))

let clear_routes t = Hashtbl.reset t.routes
let flush_fdb t = Hashtbl.reset t.fdb

let fdb_lookup t ~node =
  Option.map (fun p -> p.label) (Hashtbl.find_opt t.fdb node)

(* Release one drained frame's ledger charges without the XON side effect
   (a powered-off switch must not transmit). *)
let release t p charged ingress_pid =
  match t.buffer with
  | Some b ->
      let r = b.port_reserve_bytes in
      let extra_shared =
        max 0 (p.egress_bytes - r) - max 0 (p.egress_bytes - charged - r)
      in
      p.egress_bytes <- p.egress_bytes - charged;
      t.shared_used <- t.shared_used - extra_shared;
      t.occupied <- t.occupied - charged;
      probe_buffer t p.node (-charged);
      (match find_port t ingress_pid with
      | Some q -> q.ingress_bytes <- q.ingress_bytes - charged
      | None -> ())
  | None -> ()

(* Power the switch down or back up.  Down: ingress is refused, egress
   FIFOs drain into thin air with their ledger charges released, PAUSE
   gates and pending XOFF state are cleared (upstream gates expire on
   their own quanta timers — a dead switch sends no XON).  Frames already
   mid-serialization finish on the wire.  Up: every pump restarts. *)
let set_down t flag =
  if t.down <> flag then begin
    t.down <- flag;
    if flag then
      List.iter
        (fun p ->
          Option.iter Sim.cancel p.resume;
          p.resume <- None;
          let now = Sim.now t.sim in
          if egress_gated t p then begin
            p.egress_paused_ns <- p.egress_paused_ns + (now - p.gate_start);
            p.tx_paused_until <- now
          end;
          p.paused_rx <- false;
          Queue.iter
            (fun (frame, ingress_pid) ->
              match t.buffer with
              | Some _ ->
                  release t p (Eth_frame.buffer_bytes frame) ingress_pid
              | None -> ())
            p.fifo;
          Queue.clear p.fifo;
          probe_fifo t p)
        t.port_list
    else List.iter (fun p -> pump_port t p) t.port_list
  end

let is_down t = t.down
let uplink t ~node = (get_port t node).uplink
let connect_node t ~node rx = Link.connect (get_port t node).downlink rx

let rewire_node t ~node rx =
  (* The rebooted node's NIC is new hardware: any learned entry for it is
     stale the instant the old NIC dies, so withdraw it and let the fabric
     relearn (remote switches keep their entries — they can't see a
     reboot, a documented blind spot of flooding-based learning). *)
  Hashtbl.remove t.fdb node;
  Link.reconnect (get_port t node).downlink rx

let ports t =
  List.filter_map (fun p -> if p.node >= 0 then Some p.node else None)
    t.port_list

let trunks t =
  List.filter_map (fun p -> if p.node < 0 then Some p.label else None)
    t.port_list

let trunk_tx_frames t ~peer =
  (get_trunk t ~what:"Switch.trunk_tx_frames" peer).tx_frames

let frames_forwarded t = t.frames_forwarded
let frames_flooded t = t.frames_flooded
let frames_unroutable t = t.frames_unroutable
let frames_ttl_dropped t = t.frames_ttl_dropped
let unknown_floods t = t.unknown_floods
let down_drops t = t.down_drops

let egress_drops t =
  List.fold_left (fun acc p -> acc + p.egress_drops) 0 t.port_list

let ingress_drops t =
  List.fold_left (fun acc p -> acc + p.ingress_drops) 0 t.port_list

let pause_frames_tx t = t.pause_frames_tx
let pause_frames_rx t = t.pause_frames_rx
let ecn_marked t = t.ecn_marked
let buffer_occupied t = t.occupied
let peak_buffer_occupied t = t.peak_occupied

let egress_paused_ns t =
  List.fold_left (fun acc p -> acc + p.egress_paused_ns) 0 t.port_list

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
let has_node t node =
  match find_port t node with Some p -> p.node >= 0 | None -> false
