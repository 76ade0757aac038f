open Engine

(* A link moves frames without allocating: the frame being serialized sits
   in [on_wire], serialized frames wait out the propagation delay in
   [in_flight], and the two events of a frame's life post the thunks
   [serialized] and [arrival] that [create] builds once.

   [in_flight] pops in the order its arrivals were posted.  Each arrival
   is posted [propagation] after an end of serialization strictly later
   than the one before it (a frame's serialization time is positive), so
   the arrival events fire in posting order under FIFO and permuted
   tie-breaking alike, and each pop takes the frame its event was posted
   for. *)
type t = {
  sim : Sim.t;
  name : string;
  bits_per_s : float;
  propagation : Time.span;
  fault : Fault.t;
  queue_limit : int option;
  queue : Eth_frame.t Ring.t;
  mutable transmitting : bool;
  mutable on_wire : Eth_frame.t;
  in_flight : Eth_frame.t Ring.t;
  serialized : unit -> unit;
  arrival : unit -> unit;
  mutable receiver : (Eth_frame.t -> unit) option;
  mutable on_tx_complete : (Eth_frame.t -> unit) option;
  mutable on_drop : (Eth_frame.t -> unit) option;
  room_waiters : unit Ivar.t Queue.t;
  mutable frames_sent : int;
  mutable frames_dropped : int;
}

let connect t receiver =
  if t.receiver <> None then invalid_arg "Link.connect: receiver already set";
  t.receiver <- Some receiver

let reconnect t receiver = t.receiver <- Some receiver
let set_tx_complete t f = t.on_tx_complete <- Some f
let set_on_drop t f = t.on_drop <- Some f

let serialization_time t frame =
  Time.of_bits_at_rate ~bits_per_s:t.bits_per_s
    (Eth_frame.on_wire_bytes frame * 8)

(* Hands each surviving copy to the receiver, in the fault's order. *)
let[@clic.hot] rec deliver_copies t rx frame copies =
  match copies with
  | [] -> ()
  | { Fault.delay; corrupt } :: rest ->
      let copy =
        if corrupt then
          ({ frame with Eth_frame.corrupted = true }
          [@clic.alloc_ok "corrupted copy: Fault.corrupt links only"])
        else frame
      in
      if delay = 0 then rx copy
      else
        (Sim.post t.sim ~after:delay (fun () -> rx copy)
        [@clic.alloc_ok "jitter post: delaying faults only"]);
      deliver_copies t rx frame rest

let[@clic.hot] deliver t frame =
  (* Fault-injected drops and duplications are counted inside [t.fault];
     each surviving copy arrives after its own extra delay (jitter), so
     copies of different frames may reorder. *)
  match
    Fault.frame t.fault ~now:(Sim.now t.sim) ~ser:(serialization_time t frame)
  with
  | [] -> ()
  | copies -> (
      match t.receiver with
      | Some rx -> deliver_copies t rx frame copies
      | None -> t.frames_dropped <- t.frames_dropped + 1)

let[@clic.hot] arrive t = deliver t (Ring.pop t.in_flight)

let probe_depth t depth =
  if !Probe.on then Probe.emit (Probe.Queue_depth { queue = t.name; depth })

let has_room t =
  match t.queue_limit with
  | Some limit -> Ring.length t.queue < limit
  | None -> true

(* Wake every waiter; each re-checks [has_room] and re-queues if another
   woken process grabbed the slot first. *)
let notify_room t =
  while not (Queue.is_empty t.room_waiters) do
    Ivar.fill (Queue.take t.room_waiters) ()
  done

let wait_room t =
  while not (has_room t) do
    let iv = Ivar.create () in
    Queue.add iv t.room_waiters;
    Ivar.read iv
  done

(* The transmitter drains the queue one frame at a time; each frame occupies
   the wire for its serialization time, then propagates independently (so
   back-to-back frames pipeline across the propagation delay). *)
let[@clic.hot] transmit t frame =
  let ser = serialization_time t frame in
  t.frames_sent <- t.frames_sent + 1;
  probe_depth t (Ring.length t.queue);
  notify_room t;
  (* The wire-occupancy span is known up front: serialization is not
     preemptible, so it can be reported at schedule time. *)
  if ser > 0 && !Probe.on then begin
    let start = Sim.now t.sim in
    Probe.emit
      (Probe.Span
         { host = t.name; track = Probe.Link; stage = Probe.Stage.Frame;
           start; finish = start + ser })
  end;
  t.on_wire <- frame;
  Sim.post t.sim ~after:ser t.serialized

let[@clic.hot] end_serialization t =
  let frame = t.on_wire in
  t.on_wire <- Eth_frame.filler;
  Ring.push t.in_flight frame;
  Sim.post t.sim ~after:t.propagation t.arrival;
  (* Serialization done: the sender's buffer for this frame is free (a
     switch releases its shared-pool bytes here). *)
  (match t.on_tx_complete with Some f -> f frame | None -> ());
  if Ring.is_empty t.queue then t.transmitting <- false
  else transmit t (Ring.pop t.queue)

let[@clic.hot] send t frame =
  let full =
    match t.queue_limit with
    | Some limit -> Ring.length t.queue >= limit
    | None -> false
  in
  if full then begin
    t.frames_dropped <- t.frames_dropped + 1;
    match t.on_drop with Some f -> f frame | None -> ()
  end
  else if t.transmitting then begin
    Ring.push t.queue frame;
    probe_depth t (Ring.length t.queue)
  end
  else begin
    (* An idle link's queue is empty: the frame goes straight to the wire,
       reporting the depth it would have had queued for an instant. *)
    probe_depth t 1;
    t.transmitting <- true;
    transmit t frame
  end

let create sim ~name ~bits_per_s ?(propagation = Time.ns 500)
    ?(fault = Fault.none) ?queue_limit () =
  if bits_per_s <= 0. then invalid_arg "Link.create: rate <= 0";
  (match queue_limit with
  | Some n when n <= 0 -> invalid_arg "Link.create: queue_limit <= 0"
  | _ -> ());
  let rec t =
    {
      sim;
      name;
      bits_per_s;
      propagation;
      fault;
      queue_limit;
      queue = Ring.create Eth_frame.filler;
      transmitting = false;
      on_wire = Eth_frame.filler;
      in_flight = Ring.create Eth_frame.filler;
      serialized = (fun () -> end_serialization t);
      arrival = (fun () -> arrive t);
      receiver = None;
      on_tx_complete = None;
      on_drop = None;
      room_waiters = Queue.create ();
      frames_sent = 0;
      frames_dropped = 0;
    }
  in
  t

let bits_per_s t = t.bits_per_s
let frames_sent t = t.frames_sent
let frames_dropped t = t.frames_dropped + Fault.drops t.fault
let queue_depth t = Ring.length t.queue
