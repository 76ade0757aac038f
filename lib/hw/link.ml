open Engine

type t = {
  sim : Sim.t;
  name : string;
  bits_per_s : float;
  propagation : Time.span;
  fault : Fault.t;
  queue_limit : int option;
  queue : Eth_frame.t Queue.t;
  mutable transmitting : bool;
  mutable receiver : (Eth_frame.t -> unit) option;
  mutable on_tx_complete : (Eth_frame.t -> unit) option;
  mutable on_drop : (Eth_frame.t -> unit) option;
  room_waiters : unit Ivar.t Queue.t;
  mutable frames_sent : int;
  mutable frames_dropped : int;
}

let create sim ~name ~bits_per_s ?(propagation = Time.ns 500)
    ?(fault = Fault.none) ?queue_limit () =
  if bits_per_s <= 0. then invalid_arg "Link.create: rate <= 0";
  (match queue_limit with
  | Some n when n <= 0 -> invalid_arg "Link.create: queue_limit <= 0"
  | _ -> ());
  {
    sim;
    name;
    bits_per_s;
    propagation;
    fault;
    queue_limit;
    queue = Queue.create ();
    transmitting = false;
    receiver = None;
    on_tx_complete = None;
    on_drop = None;
    room_waiters = Queue.create ();
    frames_sent = 0;
    frames_dropped = 0;
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

let deliver t frame =
  (* Fault-injected drops and duplications are counted inside [t.fault];
     each surviving copy arrives after its own extra delay (jitter), so
     copies of different frames may reorder. *)
  match
    Fault.frame t.fault ~now:(Sim.now t.sim) ~ser:(serialization_time t frame)
      ()
  with
  | [] -> ()
  | copies -> (
      match t.receiver with
      | Some rx ->
          List.iter
            (fun { Fault.delay; corrupt } ->
              let frame =
                if corrupt then { frame with Eth_frame.corrupted = true }
                else frame
              in
              if delay = 0 then rx frame
              else Sim.post t.sim ~after:delay (fun () -> rx frame))
            copies
      | None -> t.frames_dropped <- t.frames_dropped + 1)

(* The transmitter drains the queue one frame at a time; each frame occupies
   the wire for its serialization time, then propagates independently (so
   back-to-back frames pipeline across the propagation delay). *)
let probe_depth t =
  if !Probe.on then
    Probe.emit
      (Probe.Queue_depth { queue = t.name; depth = Queue.length t.queue })

let has_room t =
  match t.queue_limit with
  | Some limit -> Queue.length t.queue < limit
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

let rec pump t =
  match Queue.take_opt t.queue with
  | None -> t.transmitting <- false
  | Some frame ->
      let ser = serialization_time t frame in
      t.frames_sent <- t.frames_sent + 1;
      probe_depth t;
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
      Sim.post t.sim ~after:ser (fun () ->
          Sim.post t.sim ~after:t.propagation (fun () -> deliver t frame);
          (* Serialization done: the sender's buffer for this frame is
             free (a switch releases its shared-pool bytes here). *)
          (match t.on_tx_complete with Some f -> f frame | None -> ());
          pump t)

let send t frame =
  let full =
    match t.queue_limit with
    | Some limit -> Queue.length t.queue >= limit
    | None -> false
  in
  if full then begin
    t.frames_dropped <- t.frames_dropped + 1;
    match t.on_drop with Some f -> f frame | None -> ()
  end
  else begin
    Queue.add frame t.queue;
    probe_depth t;
    if not t.transmitting then begin
      t.transmitting <- true;
      pump t
    end
  end

let bits_per_s t = t.bits_per_s
let frames_sent t = t.frames_sent
let frames_dropped t = t.frames_dropped + Fault.drops t.fault
let queue_depth t = Queue.length t.queue
