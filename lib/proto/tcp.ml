open Engine
open Os_model

let log_src = Logs.Src.create "proto.tcp" ~doc:"TCP baseline stack"

module Log = (val Logs.src_log log_src : Logs.LOG)

type params = {
  tx_per_segment : Time.span;
  rx_per_segment : Time.span;
  ack_tx_cost : Time.span;
  ack_rx_cost : Time.span;
  per_send_call : Time.span;
  per_recv_call : Time.span;
  tx_bytes_per_s : float;
  rx_bytes_per_s : float;
  socket_buffer : int;
  initial_cwnd_segments : int;
  initial_ssthresh : int;
  delack_segments : int;
  delack_timeout : Time.span;
  rto : Time.span;
  dupack_threshold : int;
}

let default_params =
  {
    tx_per_segment = Time.us 9.;
    rx_per_segment = Time.us 10.;
    ack_tx_cost = Time.us 2.;
    ack_rx_cost = Time.us 2.;
    per_send_call = Time.us 300.;
    per_recv_call = Time.us 300.;
    tx_bytes_per_s = 90e6;
    rx_bytes_per_s = 50e6;
    socket_buffer = 131072;
    initial_cwnd_segments = 2;
    initial_ssthresh = 131072;
    delack_segments = 2;
    delack_timeout = Time.ms 40.;
    rto = Time.ms 200.;
    dupack_threshold = 3;
  }

type conn = {
  tcp : t;
  local_port : int;
  peer : int;
  peer_port : int;
  (* ---- send side ---- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable unsent : int;  (* bytes in the send buffer not yet segmented *)
  send_room : Semaphore.t;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable peer_window : int;
  mutable dupacks : int;
  mutable rto_timer : Ktimer.t option;
  (* ---- receive side ---- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;  (* out-of-order (seq, len), sorted *)
  mutable avail : int;
  mutable delivered : int;
  mutable recv_waiter : Sched.slot option;
  mutable delack_count : int;
  mutable delack_timer : Ktimer.t option;
  mutable established : bool;
  established_iv : unit Ivar.t;
  (* ---- teardown ---- *)
  mutable fin_sent : bool;
  mutable peer_fin : bool;
}

and t = {
  ip : Ip.t;
  p : params;
  conns : (int * int * int, conn) Hashtbl.t;  (* local_port, peer, peer_port *)
  listeners : (int, conn Mailbox.t) Hashtbl.t;
  mutable next_port : int;
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
}

let env t = Ethernet.env (Ip.ethernet t.ip)
let sim t = (env t).Hostenv.sim
let cpu t = (env t).Hostenv.cpu
let sched t = (env t).Hostenv.sched
let mss_of t = Ip.mtu t.ip - Packet.ip_header_bytes - Packet.tcp_header_bytes
let mss c = mss_of c.tcp

let byte_time rate n = Time.of_bytes_at_rate ~bytes_per_s:rate n
let in_flight c = c.snd_nxt - c.snd_una
let rcv_window c = max 0 (c.tcp.p.socket_buffer - c.avail)

(* ------------------------------------------------------------------ *)
(* Segment emission *)

let emit c ?(data = 0) ?(seq = 0) flags =
  let t = c.tcp in
  let seg =
    { Packet.src_port = c.local_port; dst_port = c.peer_port; seq;
      ack_seq = c.rcv_nxt; data_bytes = data; flags; window = rcv_window c }
  in
  (* Any segment carries the latest ack: outstanding delayed acks are
     satisfied by piggybacking. *)
  c.delack_count <- 0;
  (match c.delack_timer with
  | Some timer ->
      Ktimer.cancel timer;
      c.delack_timer <- None
  | None -> ());
  let skb =
    Skbuff.create ~header_bytes:Packet.tcp_header_bytes
      [ { Skbuff.region = Skbuff.Kernel_memory; bytes = data } ]
  in
  Ip.send t.ip ~dst:c.peer ~skb (Packet.Tcp seg)

let send_pure_ack c =
  let t = c.tcp in
  t.acks_sent <- t.acks_sent + 1;
  Cpu.work (cpu t) t.p.ack_tx_cost;
  emit c Packet.ack_flags

(* Pure acks are triggered from interrupt context; run them in their own
   process so the receive path never blocks on the device queue. *)
let schedule_ack c = Process.spawn (sim c.tcp) (fun () -> send_pure_ack c)

let rec arm_rto c =
  (match c.rto_timer with Some timer -> Ktimer.cancel timer | None -> ());
  c.rto_timer <-
    Some (Ktimer.after (sim c.tcp) c.tcp.p.rto (fun () -> on_rto c))

and cancel_rto c =
  match c.rto_timer with
  | Some timer ->
      Ktimer.cancel timer;
      c.rto_timer <- None
  | None -> ()

(* Go-back-N recovery: everything in flight returns to the unsent pool. *)
and on_rto c =
  c.rto_timer <- None;
  if in_flight c > 0 then begin
    let t = c.tcp in
    Log.debug (fun m ->
        m "rto on %d<->%d:%d: resending from %d (%dB in flight)"
          c.local_port c.peer c.peer_port c.snd_una (in_flight c));
    t.retransmits <- t.retransmits + 1;
    c.ssthresh <- max (in_flight c / 2) (2 * mss c);
    c.cwnd <- mss c;
    c.unsent <- c.unsent + in_flight c;
    c.snd_nxt <- c.snd_una;
    c.dupacks <- 0;
    Process.spawn (sim t) (fun () -> push_data c)
  end

(* Send as much buffered data as the congestion and peer windows allow.
   Runs in task context or a forked process; several instances may be in
   flight at once (an ack can arrive mid-send), so all sequence-space
   bookkeeping is committed atomically BEFORE any operation that can
   suspend — otherwise two instances would carve segments out of the same
   stale [unsent] count. *)
and push_data c =
  let t = c.tcp in
  let window = min c.cwnd c.peer_window in
  if c.unsent > 0 && in_flight c < window then begin
    let len = min (mss c) (min c.unsent (window - in_flight c)) in
    if len > 0 then begin
      let seq = c.snd_nxt in
      c.snd_nxt <- c.snd_nxt + len;
      c.unsent <- c.unsent - len;
      t.segments_sent <- t.segments_sent + 1;
      if c.rto_timer = None then arm_rto c;
      Cpu.work (cpu t) t.p.tx_per_segment;
      emit c ~data:len ~seq Packet.data_flags;
      push_data c
    end
  end

let fast_retransmit c =
  let t = c.tcp in
  Log.debug (fun m ->
      m "fast retransmit on %d<->%d:%d at seq %d" c.local_port c.peer
        c.peer_port c.snd_una);
  t.retransmits <- t.retransmits + 1;
  c.ssthresh <- max (in_flight c / 2) (2 * mss c);
  c.cwnd <- c.ssthresh;
  c.dupacks <- 0;
  (* [seq] is read with [len]: an ack arriving during the CPU work below
     moves [snd_una], and the old length from the new start would run
     past the end of the stream.  The process reads [t] from [c], so its
     closure captures three values ([c], [seq], [len]), not four. *)
  let seq = c.snd_una and len = min (mss c) (in_flight c) in
  Process.spawn (sim t) (fun () ->
      let t = c.tcp in
      Cpu.work (cpu t) t.p.tx_per_segment;
      t.segments_sent <- t.segments_sent + 1;
      emit c ~data:len ~seq Packet.data_flags)

(* ------------------------------------------------------------------ *)
(* Receive path (interrupt context) *)

let wake_reader c =
  match c.recv_waiter with
  | Some slot ->
      c.recv_waiter <- None;
      Sched.wake slot
  | None -> ()

let insert_ooo c seq len =
  let rec ins = function
    | [] -> [ (seq, len) ]
    | (s, _) :: _ as rest when seq < s -> (seq, len) :: rest
    | hd :: rest -> hd :: ins rest
  in
  if not (List.exists (fun (s, _) -> s = seq) c.ooo) then
    c.ooo <- ins c.ooo

let rec drain_ooo c =
  match c.ooo with
  | (s, l) :: rest when s <= c.rcv_nxt ->
      (* Overlap is benign: count only the new bytes. *)
      let new_bytes = max 0 (s + l - c.rcv_nxt) in
      c.rcv_nxt <- c.rcv_nxt + new_bytes;
      c.avail <- c.avail + new_bytes;
      c.delivered <- c.delivered + new_bytes;
      c.ooo <- rest;
      drain_ooo c
  | _ -> ()

let on_data c (seg : Packet.tcp_segment) =
  let t = c.tcp in
  Cpu.work ~priority:`High (cpu t) t.p.rx_per_segment;
  Cpu.work_sliced ~priority:`High (cpu t)
    (byte_time t.p.rx_bytes_per_s seg.data_bytes);
  if seg.seq <= c.rcv_nxt && seg.seq + seg.data_bytes > c.rcv_nxt then begin
    (* In-order, possibly overlapping a retransmission: deliver the new
       tail only. *)
    let new_bytes = seg.seq + seg.data_bytes - c.rcv_nxt in
    c.rcv_nxt <- c.rcv_nxt + new_bytes;
    c.avail <- c.avail + new_bytes;
    c.delivered <- c.delivered + new_bytes;
    drain_ooo c;
    wake_reader c;
    c.delack_count <- c.delack_count + 1;
    if c.delack_count >= t.p.delack_segments then schedule_ack c
    else if c.delack_timer = None then
      c.delack_timer <-
        Some
          (Ktimer.after (sim t) t.p.delack_timeout (fun () ->
               c.delack_timer <- None;
               if c.delack_count > 0 then schedule_ack c))
  end
  else if seg.seq > c.rcv_nxt then begin
    insert_ooo c seg.seq seg.data_bytes;
    schedule_ack c (* duplicate ack announcing the hole *)
  end
  else schedule_ack c (* stale retransmission: re-announce rcv_nxt *)

let on_ack c (seg : Packet.tcp_segment) =
  let t = c.tcp in
  if seg.data_bytes = 0 then Cpu.work ~priority:`High (cpu t) t.p.ack_rx_cost;
  let window_changed = seg.window <> c.peer_window in
  c.peer_window <- seg.window;
  if seg.ack_seq > c.snd_una then begin
    let acked = seg.ack_seq - c.snd_una in
    c.snd_una <- seg.ack_seq;
    c.dupacks <- 0;
    Semaphore.release ~n:acked c.send_room;
    (* Slow start: one MSS per ack; congestion avoidance: ~MSS per RTT. *)
    if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + mss c
    else c.cwnd <- c.cwnd + max 1 (mss c * mss c / c.cwnd);
    if in_flight c = 0 then cancel_rto c else arm_rto c;
    if c.unsent > 0 then Process.spawn (sim t) (fun () -> push_data c)
  end
  else if
    seg.data_bytes = 0 && in_flight c > 0 && seg.ack_seq = c.snd_una
    && not window_changed
  then begin
    (* A true duplicate ack (window updates are not dupacks, RFC 5681). *)
    c.dupacks <- c.dupacks + 1;
    if c.dupacks = t.p.dupack_threshold then fast_retransmit c
  end
  else if c.unsent > 0 && in_flight c < min c.cwnd c.peer_window then
    (* A window update re-opened the door. *)
    Process.spawn (sim t) (fun () -> push_data c)

(* ------------------------------------------------------------------ *)
(* Connection management *)

let make_conn t ~local_port ~peer ~peer_port =
  let c =
    {
      tcp = t;
      local_port;
      peer;
      peer_port;
      snd_una = 0;
      snd_nxt = 0;
      unsent = 0;
      send_room = Semaphore.create t.p.socket_buffer;
      cwnd = t.p.initial_cwnd_segments * mss_of t;
      ssthresh = t.p.initial_ssthresh;
      peer_window = t.p.socket_buffer;
      dupacks = 0;
      rto_timer = None;
      rcv_nxt = 0;
      ooo = [];
      avail = 0;
      delivered = 0;
      recv_waiter = None;
      delack_count = 0;
      delack_timer = None;
      established = false;
      established_iv = Ivar.create ();
      fin_sent = false;
      peer_fin = false;
    }
  in
  Hashtbl.replace t.conns (local_port, peer, peer_port) c;
  c

let establish c =
  if not c.established then begin
    c.established <- true;
    Ivar.fill c.established_iv ()
  end

let on_segment t (seg : Packet.tcp_segment) ~src =
  let key = (seg.dst_port, src, seg.src_port) in
  match Hashtbl.find_opt t.conns key with
  | Some c ->
      if seg.flags.Packet.syn && not seg.flags.Packet.ack then
        (* Duplicate SYN: our SYN|ACK was lost; resend it. *)
        Process.spawn (sim t) (fun () ->
            Cpu.work (cpu t) t.p.ack_tx_cost;
            emit c Packet.synack_flags)
      else if seg.flags.Packet.syn && seg.flags.Packet.ack then begin
        (* SYN|ACK at the client: established; ack it. *)
        establish c;
        schedule_ack c
      end
      else begin
        if not c.established then begin
          (* First ACK (or data) completing the server-side handshake. *)
          establish c;
          match Hashtbl.find_opt t.listeners c.local_port with
          | Some queue -> Mailbox.send queue c
          | None -> ()
        end;
        if seg.data_bytes > 0 then on_data c seg;
        if seg.flags.Packet.fin then begin
          c.peer_fin <- true;
          wake_reader c;
          schedule_ack c
        end;
        if seg.flags.Packet.ack then on_ack c seg
      end
  | None ->
      if seg.flags.Packet.syn && not seg.flags.Packet.ack then begin
        match Hashtbl.find_opt t.listeners seg.dst_port with
        | Some _queue ->
            let c =
              make_conn t ~local_port:seg.dst_port ~peer:src
                ~peer_port:seg.src_port
            in
            Process.spawn (sim t) (fun () ->
                Cpu.work (cpu t) t.p.ack_tx_cost;
                emit c Packet.synack_flags)
        | None -> ()
      end

let create ip ?(params = default_params) () =
  let t =
    {
      ip;
      p = params;
      conns = Hashtbl.create 16;
      listeners = Hashtbl.create 4;
      next_port = 32768;
      segments_sent = 0;
      retransmits = 0;
      acks_sent = 0;
    }
  in
  Ip.register_tcp ip (on_segment t);
  t

let listen t ~port =
  if Hashtbl.mem t.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d taken" port);
  Hashtbl.add t.listeners port (Mailbox.create ())

let connect t ~dst ~port =
  let local_port = t.next_port in
  t.next_port <- t.next_port + 1;
  let c = make_conn t ~local_port ~peer:dst ~peer_port:port in
  (* The handshake has its own retransmission: a lost SYN or SYN|ACK would
     otherwise hang the connection forever.  Wait for establishment with a
     timeout, re-emitting the SYN on each expiry. *)
  let established_or_timeout () =
    if Ivar.is_filled c.established_iv then true
    else
      Process.await (fun resume ->
          let settled = ref false in
          let finish v =
            if not !settled then begin
              settled := true;
              resume v
            end
          in
          let timer =
            Ktimer.after (sim t) t.p.rto (fun () -> finish false)
          in
          Ivar.on_fill c.established_iv (fun () ->
              Ktimer.cancel timer;
              finish true))
  in
  let attempts = ref 0 in
  let rec try_syn () =
    incr attempts;
    Cpu.work (cpu t) t.p.ack_tx_cost;
    emit c Packet.syn_flags;
    if not (established_or_timeout ()) then
      if !attempts < 8 then try_syn ()
      else failwith "Tcp.connect: handshake timed out"
  in
  try_syn ();
  c

let accept t ~port =
  match Hashtbl.find_opt t.listeners port with
  | Some queue -> Mailbox.recv queue
  | None -> invalid_arg (Printf.sprintf "Tcp.accept: port %d not listening" port)

(* ------------------------------------------------------------------ *)
(* Application interface *)

let send c n =
  if n < 0 then invalid_arg "Tcp.send: negative size";
  let t = c.tcp in
  let e = env t in
  Syscall.wrap e.Hostenv.syscall (fun () ->
      Cpu.work (cpu t) t.p.per_send_call;
      let rec feed remaining =
        if remaining > 0 then begin
          let chunk = min remaining (t.p.socket_buffer / 2) in
          Semaphore.acquire ~n:chunk c.send_room;
          (* copy_from_user + checksum in one pass (preemptible) *)
          Process.fork (fun () ->
              Bus.transfer e.Hostenv.membus (Hw.Membus.copy_bytes chunk));
          Cpu.work_sliced (cpu t) (byte_time t.p.tx_bytes_per_s chunk);
          c.unsent <- c.unsent + chunk;
          push_data c;
          feed (remaining - chunk)
        end
      in
      feed n)

let recv c n =
  if n < 0 then invalid_arg "Tcp.recv: negative size";
  let t = c.tcp in
  let e = env t in
  Syscall.wrap e.Hostenv.syscall (fun () ->
      Cpu.work (cpu t) t.p.per_recv_call;
      let rec take got =
        if got < n then begin
          if c.avail = 0 && c.peer_fin then raise End_of_file;
          if c.avail = 0 then begin
            let slot = Sched.slot (sched t) in
            c.recv_waiter <- Some slot;
            Sched.wait slot
          end;
          if c.avail = 0 && c.peer_fin then raise End_of_file;
          let window_before = rcv_window c in
          let chunk = min c.avail (n - got) in
          c.avail <- c.avail - chunk;
          Cpu.copy (cpu t) ~membus:e.Hostenv.membus chunk;
          (* Re-open the peer's view of our window if it was pinched. *)
          if window_before < mss c && rcv_window c >= mss c then
            schedule_ack c;
          take (got + chunk)
        end
      in
      take 0)

let ip_of t = t.ip
let peer_of c = c.peer
(* Orderly shutdown: drain our own send side, then emit FIN and return
   once the peer acknowledges it (the ack of everything sent).  Draining is
   detected by a coarse poll — teardown is not on any measured path. *)
let close c =
  if not c.fin_sent then begin
    let t = c.tcp in
    c.fin_sent <- true;
    let rec drain () =
      if c.unsent > 0 || in_flight c > 0 then begin
        Process.delay (Time.us 200.);
        drain ()
      end
    in
    drain ();
    Cpu.work (cpu t) t.p.ack_tx_cost;
    emit c { Packet.data_flags with fin = true };
    (* FIN consumes no sequence space in this model; give the ack a round
       trip before returning *)
    Process.delay (Time.us 200.)
  end

let at_eof c = c.peer_fin && c.avail = 0

let available c = c.avail
let segments_sent t = t.segments_sent
let retransmits t = t.retransmits
let acks_sent t = t.acks_sent
let bytes_delivered c = c.delivered
