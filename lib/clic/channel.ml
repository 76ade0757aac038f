open Engine
open Os_model

let log_src = Logs.Src.create "clic.channel" ~doc:"CLIC reliability channel"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Dead of int

type t = {
  sim : Sim.t;
  uid : int;  (* process-unique: Gamma and CLIC channels share node ids *)
  self : int;
  peer : int;
  epoch : int;  (* our boot epoch, stamped into every packet we send *)
  params : Params.t;
  transmit : Wire.packet -> retransmission:bool -> unit;
  deliver : Wire.packet -> unit;
  send_ack : cum_seq:int -> sacks:(int * int) list -> ce_echo:bool -> unit;
  defer_acks : (unit -> bool) option;
      (* receive-side backpressure: while true, ack staging is deferred
         (doubled batch size and timeout) to spare the kernel pool *)
  (* transmit side *)
  window : Semaphore.t;
  mutable withheld : int;
      (* permits held out of circulation because the peer advertised a
         window smaller than [params.tx_window] *)
  mutable snd_nxt : int;
  mutable snd_una : int;
  unacked : (int, Wire.packet) Hashtbl.t;
  sent_at : (int, Time.t) Hashtbl.t;
      (* first-transmission times; entries are removed on retransmission so
         only unambiguous packets yield RTT samples (Karn's algorithm) *)
  mutable rto_timer : Ktimer.t option;
  mutable retransmissions : int;
  mutable retries : int;  (* consecutive timeouts without progress *)
  mutable dead : bool;
  (* adaptive RTO state (Jacobson/Karels, in float nanoseconds) *)
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : Time.span;  (* base RTO before backoff *)
  mutable backoff : int;  (* consecutive-timeout exponent *)
  mutable rtt_samples : int;
  mutable timeouts : int;
  (* fast retransmit *)
  mutable dup_acks : int;
  mutable last_fast_rtx : int;  (* hole already fast-retransmitted *)
  mutable fast_retransmits : int;
  rto_stats : Stats.Summary.t;  (* effective RTO (us) at each arming *)
  on_death : unit -> unit;  (* owner notification, fired once at teardown *)
  (* selective retransmit (retx_scheme = `Sack) *)
  sacked : (int, unit) Hashtbl.t;
      (* outstanding sequences the peer has SACKed: skipped on RTO until
         the cumulative ack passes them (no reneging in this model) *)
  mutable sacked_segments : int;
  mutable retx_bytes : int;  (* wire bytes spent on retransmissions *)
  mutable retx_bytes_saved : int;
      (* wire bytes an RTO did not resend because the peer held them *)
  (* DCTCP congestion control (params.dctcp) *)
  mutable advertised : int;  (* peer's latest advertised window *)
  mutable cwnd : float;  (* congestion window, packets *)
  mutable dctcp_alpha : float;  (* EWMA fraction of CE-marked acks *)
  mutable ce_echoes : int;  (* acks received with the CE-echo bit *)
  mutable acks_seen : int;  (* acks in the current observation window *)
  mutable ce_acked : int;  (* CE-echo acks in the current window *)
  mutable alpha_update_seq : int;  (* next alpha update once cum passes *)
  (* receive side *)
  mutable rcv_nxt : int;
  mutable ooo : (int * Wire.packet) list;
  mutable unacked_rx : int;  (* delivered packets not yet acknowledged *)
  mutable ack_timer : Ktimer.t option;
  mutable duplicates : int;
  mutable delivered : int;
  mutable acks_deferred : int;
  mutable ce_pending : bool;  (* CE seen since the last ack went out *)
  mutable ce_marks_rx : int;  (* CE-marked packets received *)
}

let next_uid = ref 0

let create sim ~self ~peer ?(epoch = 0) ~params ~transmit ~deliver ~send_ack
    ?defer_acks ?(on_death = fun () -> ()) () =
  let uid = !next_uid in
  incr next_uid;
  {
    sim;
    uid;
    self;
    peer;
    epoch;
    params;
    transmit;
    deliver;
    send_ack;
    defer_acks;
    window = Semaphore.create params.Params.tx_window;
    withheld = 0;
    snd_nxt = 0;
    snd_una = 0;
    unacked = Hashtbl.create 64;
    sent_at = Hashtbl.create 64;
    rto_timer = None;
    retransmissions = 0;
    retries = 0;
    dead = false;
    srtt = None;
    rttvar = 0.;
    rto = params.Params.retransmit_timeout;
    backoff = 0;
    rtt_samples = 0;
    timeouts = 0;
    dup_acks = 0;
    last_fast_rtx = -1;
    fast_retransmits = 0;
    rto_stats = Stats.Summary.create ();
    on_death;
    sacked = Hashtbl.create 16;
    sacked_segments = 0;
    retx_bytes = 0;
    retx_bytes_saved = 0;
    advertised = params.Params.tx_window;
    cwnd = float_of_int params.Params.tx_window;
    dctcp_alpha = 0.;
    ce_echoes = 0;
    acks_seen = 0;
    ce_acked = 0;
    alpha_update_seq = 0;
    rcv_nxt = 0;
    ooo = [];
    unacked_rx = 0;
    ack_timer = None;
    duplicates = 0;
    delivered = 0;
    acks_deferred = 0;
    ce_pending = false;
    ce_marks_rx = 0;
  }

let cancel_timer slot =
  match slot with Some timer -> Ktimer.cancel timer | None -> ()

(* Feed the invariant monitors (lib/check); all no-ops when no probe sink
   is installed. *)
let probe_window t =
  if !Probe.on then
    Probe.emit
      (Probe.Window
         {
           chan = t.uid;
           node = t.self;
           peer = t.peer;
           outstanding = t.snd_nxt - t.snd_una;
           limit = t.params.Params.tx_window;
         })

let probe_deliver t seq =
  if !Probe.on then
    Probe.emit
      (Probe.Chan_deliver { chan = t.uid; node = t.self; peer = t.peer; seq })

(* ---------------- adaptive RTO ---------------- *)

let rtt_alpha = 0.125
let rtt_beta = 0.25

let effective_rto t =
  let shift = min t.backoff 20 in
  min (t.rto * (1 lsl shift)) t.params.Params.rto_max

(* Jacobson/Karels: SRTT and RTTVAR from each unambiguous sample; the base
   RTO decays back toward the smoothed RTT as fresh samples arrive. *)
let note_rtt t sample =
  t.rtt_samples <- t.rtt_samples + 1;
  let s = float_of_int sample in
  (match t.srtt with
  | None ->
      t.srtt <- Some s;
      t.rttvar <- s /. 2.
  | Some srtt ->
      t.rttvar <- ((1. -. rtt_beta) *. t.rttvar) +. (rtt_beta *. Float.abs (srtt -. s));
      t.srtt <- Some (((1. -. rtt_alpha) *. srtt) +. (rtt_alpha *. s)));
  let srtt = match t.srtt with Some v -> v | None -> s in
  let raw = int_of_float (srtt +. (4. *. t.rttvar)) in
  t.rto <- max t.params.Params.rto_min (min raw t.params.Params.rto_max)

(* ---------------- transmit side ---------------- *)

let rec arm_rto t =
  cancel_timer t.rto_timer;
  let span = effective_rto t in
  if !Probe.on then
    Probe.emit
      (Probe.Rto_armed
         {
           chan = t.uid;
           node = t.self;
           peer = t.peer;
           rto_ns = span;
           lo_ns = t.params.Params.rto_min;
           hi_ns = t.params.Params.rto_max;
         });
  Stats.Summary.add t.rto_stats (Time.to_us span);
  t.rto_timer <-
    Some
      (Ktimer.after t.sim span (fun () ->
           t.rto_timer <- None;
           on_rto t))

(* A peer that never acknowledges is eventually declared dead.  Blocked
   senders must not wait on the window forever: each one is woken in its
   own event (so one sender's [Dead] raise cannot strand the others) and
   finds [t.dead] set when its acquire returns. *)
and teardown t =
  if not t.dead then begin
    if !Probe.on then
      Probe.emit
        (Probe.Chan_dead { chan = t.uid; node = t.self; peer = t.peer });
    t.dead <- true;
    cancel_timer t.rto_timer;
    t.rto_timer <- None;
    cancel_timer t.ack_timer;
    t.ack_timer <- None;
    Hashtbl.reset t.unacked;
    Hashtbl.reset t.sent_at;
    Hashtbl.reset t.sacked;
    (* Withheld permits go back into circulation so the accounting identity
       the sanitizer checks still balances. *)
    if t.withheld > 0 then begin
      Semaphore.release ~n:t.withheld t.window;
      t.withheld <- 0
    end;
    for _ = 1 to Semaphore.waiters t.window do
      Sim.post t.sim ~after:0 (fun () -> Semaphore.release t.window)
    done;
    Sim.post t.sim ~after:0 (fun () ->
        Semaphore.release ~n:t.params.Params.tx_window t.window);
    t.on_death ()
  end

(* Resend outstanding segments on timeout, in ascending sequence order so
   the receiver sees the oldest hole filled first, with the RTO doubled
   (capped) for each consecutive timeout without progress.  Go-back-N
   resends everything; SACK mode resends only the holes — segments the
   peer has advertised as held are skipped (and the bytes they would have
   cost are credited to [retx_bytes_saved]). *)
and on_rto t =
  if t.dead then ()
  else if t.snd_una < t.snd_nxt && t.retries >= t.params.Params.max_retries
  then begin
    Log.err (fun m ->
        m "peer %d unreachable: giving up after %d retries (%d unacked)"
          t.peer t.params.Params.max_retries (t.snd_nxt - t.snd_una));
    teardown t
  end
  else if t.snd_una < t.snd_nxt then begin
    let sack_mode = t.params.Params.retx_scheme = `Sack in
    t.retries <- t.retries + 1;
    t.timeouts <- t.timeouts + 1;
    t.backoff <- t.backoff + 1;
    Log.debug (fun m ->
        m "rto to peer %d: %s from seq %d (%d outstanding, retry %d, next \
           rto %a)"
          t.peer
          (if sack_mode then "sack holes" else "go-back-N")
          t.snd_una (t.snd_nxt - t.snd_una) t.retries Time.pp
          (effective_rto t));
    let seqs = ref [] in
    for seq = t.snd_una to t.snd_nxt - 1 do
      match Hashtbl.find_opt t.unacked seq with
      | Some pkt ->
          if sack_mode && Hashtbl.mem t.sacked seq then
            t.retx_bytes_saved <-
              t.retx_bytes_saved
              + Wire.wire_bytes ~header_bytes:t.params.Params.header_bytes pkt
          else begin
            Hashtbl.remove t.sent_at seq;
            t.retx_bytes <-
              t.retx_bytes
              + Wire.wire_bytes ~header_bytes:t.params.Params.header_bytes pkt;
            if !Probe.on then
              Probe.emit
                (Probe.Chan_retx
                   { chan = t.uid; node = t.self; peer = t.peer; seq });
            seqs := pkt :: !seqs
          end
      | None -> ()
    done;
    let seqs = List.rev !seqs in
    t.retransmissions <- t.retransmissions + List.length seqs;
    arm_rto t;
    Process.spawn t.sim (fun () ->
        List.iter (fun pkt -> t.transmit pkt ~retransmission:true) seqs)
  end

let next_seq t ~data_bytes kind =
  if not (Wire.is_reliable kind) then
    invalid_arg "Channel.next_seq: unreliable kind";
  if t.dead then raise (Dead t.peer);
  Semaphore.acquire t.window;
  if t.dead then raise (Dead t.peer);
  let seq = t.snd_nxt in
  t.snd_nxt <- t.snd_nxt + 1;
  let pkt =
    { Wire.src = t.self; epoch = t.epoch; chan_seq = Some seq; data_bytes;
      ce = false; kind }
  in
  Hashtbl.replace t.unacked seq pkt;
  Hashtbl.replace t.sent_at seq (Sim.now t.sim);
  probe_window t;
  if t.rto_timer = None then arm_rto t;
  pkt

(* The hole named by [params.dup_ack_threshold] duplicate cumulative acks
   is resent once per sequence number; the RTO (with its backoff cleared
   by any later progress) covers a lost fast retransmit. *)
let fast_retransmit t =
  match Hashtbl.find_opt t.unacked t.snd_una with
  | None -> ()
  | Some pkt ->
      t.last_fast_rtx <- t.snd_una;
      t.dup_acks <- 0;
      t.fast_retransmits <- t.fast_retransmits + 1;
      t.retransmissions <- t.retransmissions + 1;
      t.retx_bytes <-
        t.retx_bytes
        + Wire.wire_bytes ~header_bytes:t.params.Params.header_bytes pkt;
      if !Probe.on then
        Probe.emit
          (Probe.Chan_retx
             { chan = t.uid; node = t.self; peer = t.peer; seq = t.snd_una });
      Hashtbl.remove t.sent_at t.snd_una;
      Log.debug (fun m ->
          m "fast retransmit of seq %d to peer %d" t.snd_una t.peer);
      arm_rto t;
      Process.spawn t.sim (fun () -> t.transmit pkt ~retransmission:true)

(* The effective transmit limit is the tighter of the peer's advertised
   window and (under DCTCP) the congestion window, never below one
   packet.  The difference to [tx_window] is held out of the semaphore.
   Shrinking is best-effort and non-blocking: only currently-free permits
   can be withheld (slots covering packets already in flight are
   reclaimed as their acks free them, and a later ack reapplies the small
   limit). *)
let effective_limit t =
  let adv = max 1 (min t.advertised t.params.Params.tx_window) in
  let cw =
    if t.params.Params.dctcp then max 1 (int_of_float t.cwnd)
    else t.params.Params.tx_window
  in
  min adv cw

let apply_window_limit t =
  let target = t.params.Params.tx_window - effective_limit t in
  while t.withheld > target do
    Semaphore.release t.window;
    t.withheld <- t.withheld - 1
  done;
  let continue = ref true in
  while t.withheld < target && !continue do
    if Semaphore.try_acquire t.window then t.withheld <- t.withheld + 1
    else continue := false
  done

(* DCTCP (Alizadeh et al.): estimate the fraction of acks carrying a CE
   echo over roughly one window of acks, smooth it into [alpha] with gain
   [g], and on any marked window cut the congestion window by
   [alpha / 2] — a multiplicative decrease proportional to how congested
   the path actually is, instead of TCP's blanket halving.  Unmarked acks
   grow the window additively back toward [tx_window]. *)
let dctcp_on_ack t ~ce_echo ~progressed cum_seq =
  if t.params.Params.dctcp then begin
    t.acks_seen <- t.acks_seen + 1;
    if ce_echo then begin
      t.ce_acked <- t.ce_acked + 1;
      t.ce_echoes <- t.ce_echoes + 1
    end;
    if progressed && not ce_echo then
      t.cwnd <-
        min
          (float_of_int t.params.Params.tx_window)
          (t.cwnd +. (1. /. Float.max 1. t.cwnd));
    if cum_seq > t.alpha_update_seq then begin
      let g = t.params.Params.dctcp_g in
      let f = float_of_int t.ce_acked /. float_of_int t.acks_seen in
      t.dctcp_alpha <- ((1. -. g) *. t.dctcp_alpha) +. (g *. f);
      if t.ce_acked > 0 then
        t.cwnd <- Float.max 1. (t.cwnd *. (1. -. (t.dctcp_alpha /. 2.)));
      t.acks_seen <- 0;
      t.ce_acked <- 0;
      t.alpha_update_seq <- t.snd_nxt
    end;
    apply_window_limit t
  end

(* SACK blocks name segments the peer already holds: mark them so the
   next RTO resends only the holes.  The cumulative ack passing a
   sequence retires its mark; the receiver never reneges in this model
   (held packets stay held until delivered), so a mark is trustworthy
   until then. *)
let note_sacks t sacks =
  if sacks <> [] then begin
    if !Probe.on then
      Probe.emit
        (Probe.Sack_rx
           { chan = t.uid; node = t.self; peer = t.peer; blocks = sacks });
    List.iter
      (fun (start, stop) ->
        for seq = max start t.snd_una to stop - 1 do
          if Hashtbl.mem t.unacked seq && not (Hashtbl.mem t.sacked seq)
          then begin
            Hashtbl.replace t.sacked seq ();
            t.sacked_segments <- t.sacked_segments + 1
          end
        done)
      sacks
  end

let[@clic.atomic] rx_ack t ?window ?(sacks = []) ?(ce_echo = false) cum_seq =
  if !Probe.on then
    Probe.emit
      (Probe.Ack_rx { chan = t.uid; node = t.self; peer = t.peer; cum_seq });
  if t.dead then ()
  else begin
  let progressed = cum_seq > t.snd_una in
  if progressed then begin
    let now = Sim.now t.sim in
    let upper = min cum_seq t.snd_nxt in
    (* Sample the newest acked packet that was never retransmitted. *)
    let sample = ref None in
    for seq = t.snd_una to upper - 1 do
      (match Hashtbl.find_opt t.sent_at seq with
      | Some sent -> sample := Some (Time.diff now sent)
      | None -> ());
      Hashtbl.remove t.sent_at seq
    done;
    (match !sample with Some s -> note_rtt t s | None -> ());
    t.retries <- 0;
    t.backoff <- 0;
    t.dup_acks <- 0;
    let freed = upper - t.snd_una in
    for seq = t.snd_una to t.snd_una + freed - 1 do
      Hashtbl.remove t.unacked seq;
      Hashtbl.remove t.sacked seq
    done;
    t.snd_una <- t.snd_una + freed;
    Semaphore.release ~n:freed t.window;
    if !Probe.on then
      Probe.emit
        (Probe.Snd_una
           { chan = t.uid; node = t.self; peer = t.peer; snd_una = t.snd_una });
    probe_window t;
    if t.snd_una = t.snd_nxt then begin
      cancel_timer t.rto_timer;
      t.rto_timer <- None
    end
    else arm_rto t
  end
  else if cum_seq = t.snd_una && t.snd_una < t.snd_nxt then begin
    t.dup_acks <- t.dup_acks + 1;
    if
      t.dup_acks >= t.params.Params.dup_ack_threshold
      && t.last_fast_rtx <> t.snd_una
    then fast_retransmit t
  end;
  if t.params.Params.retx_scheme = `Sack then note_sacks t sacks;
  dctcp_on_ack t ~ce_echo ~progressed cum_seq;
  (match window with
  | Some w ->
      t.advertised <- w;
      apply_window_limit t
  | None -> ())
  end

(* ---------------- receive side ---------------- *)

(* Up to [params.sack_blocks] maximal contiguous runs from the (sorted)
   out-of-order queue, as absolute half-open ranges above [rcv_nxt]. *)
let sack_blocks_of t =
  if t.params.Params.retx_scheme <> `Sack then []
  else begin
    let blocks = ref [] and count = ref 0 in
    let flush lo hi =
      if !count < t.params.Params.sack_blocks then begin
        blocks := (lo, hi + 1) :: !blocks;
        incr count
      end
    in
    let run = ref None in
    List.iter
      (fun (s, _) ->
        match !run with
        | Some (lo, hi) when s = hi + 1 -> run := Some (lo, s)
        | Some (lo, hi) ->
            flush lo hi;
            run := Some (s, s)
        | None -> run := Some (s, s))
      t.ooo;
    (match !run with Some (lo, hi) -> flush lo hi | None -> ());
    List.rev !blocks
  end

let schedule_ack_now t =
  t.unacked_rx <- 0;
  cancel_timer t.ack_timer;
  t.ack_timer <- None;
  let cum = t.rcv_nxt in
  let sacks = sack_blocks_of t in
  let ce_echo = t.ce_pending in
  t.ce_pending <- false;
  if !Probe.on then begin
    Probe.emit
      (Probe.Ack_tx { chan = t.uid; node = t.self; peer = t.peer; cum_seq = cum });
    if sacks <> [] then
      Probe.emit
        (Probe.Sack_tx
           { chan = t.uid; node = t.self; peer = t.peer; blocks = sacks })
  end;
  Process.spawn t.sim (fun () -> t.send_ack ~cum_seq:cum ~sacks ~ce_echo)

let deferring t =
  match t.defer_acks with Some f -> f () | None -> false

let note_delivery t =
  t.unacked_rx <- t.unacked_rx + 1;
  (* Under pool pressure, ack staging is deferred: batches double and the
     latency bound doubles, halving the ack packets competing for kernel
     memory while the cumulative protocol keeps correctness. *)
  let defer = deferring t in
  let every =
    if defer then 2 * t.params.Params.ack_every else t.params.Params.ack_every
  in
  let timeout =
    if defer then 2 * t.params.Params.ack_timeout
    else t.params.Params.ack_timeout
  in
  if defer && t.unacked_rx >= t.params.Params.ack_every && t.unacked_rx < every
  then t.acks_deferred <- t.acks_deferred + 1;
  if t.unacked_rx >= every then schedule_ack_now t
  else if t.ack_timer = None then
    t.ack_timer <-
      Some
        (Ktimer.after t.sim timeout (fun () ->
             t.ack_timer <- None;
             if t.unacked_rx > 0 then schedule_ack_now t))

let rec drain_ooo t =
  match t.ooo with
  | (s, pkt) :: rest when s = t.rcv_nxt ->
      t.ooo <- rest;
      t.rcv_nxt <- t.rcv_nxt + 1;
      t.delivered <- t.delivered + 1;
      probe_deliver t s;
      t.deliver pkt;
      note_delivery t;
      drain_ooo t
  | (s, _) :: rest when s < t.rcv_nxt ->
      (* A held copy the cumulative sequence has since passed: it is a
         duplicate like any other and must be counted as one. *)
      t.ooo <- rest;
      t.duplicates <- t.duplicates + 1;
      drain_ooo t
  | _ -> ()

let[@clic.atomic] rx t pkt =
  if t.dead then ()
  else
    match pkt.Wire.chan_seq with
    | None -> invalid_arg "Channel.rx: unsequenced packet"
    | Some seq ->
        if pkt.Wire.ce then begin
          (* The congestion signal is per-arrival: any CE-marked packet
             since the last ack makes the next ack echo it, duplicates
             included (a retransmitted copy crossing a hot queue is
             evidence of congestion too). *)
          t.ce_marks_rx <- t.ce_marks_rx + 1;
          t.ce_pending <- true
        end;
        if seq = t.rcv_nxt then begin
          t.rcv_nxt <- t.rcv_nxt + 1;
          t.delivered <- t.delivered + 1;
          probe_deliver t seq;
          t.deliver pkt;
          note_delivery t;
          drain_ooo t
        end
        else if seq > t.rcv_nxt then begin
          if not (List.mem_assoc seq t.ooo) then begin
            let rec ins = function
              | [] -> [ (seq, pkt) ]
              | (s, _) :: _ as rest when seq < s -> (seq, pkt) :: rest
              | hd :: rest -> hd :: ins rest
            in
            t.ooo <- ins t.ooo
          end
          else t.duplicates <- t.duplicates + 1;
          (* Announce the hole so the sender can recover promptly: each of
             these immediate acks repeats the same cumulative sequence, and
             the sender's duplicate-ack counter turns them into a fast
             retransmit. *)
          schedule_ack_now t
        end
        else begin
          t.duplicates <- t.duplicates + 1;
          schedule_ack_now t
        end

let is_dead t = t.dead
let outstanding t = t.snd_nxt - t.snd_una
let sacked_segments t = t.sacked_segments
let retx_bytes t = t.retx_bytes
let retx_bytes_saved t = t.retx_bytes_saved
let ce_echoes t = t.ce_echoes
let ce_marks_rx t = t.ce_marks_rx
let dctcp_alpha t = t.dctcp_alpha
let cwnd t = effective_limit t
let acks_deferred t = t.acks_deferred
let retransmissions t = t.retransmissions
let duplicates_dropped t = t.duplicates
let delivered t = t.delivered
let srtt t = Option.map (fun s -> int_of_float s) t.srtt
let rto t = effective_rto t
let rtt_samples t = t.rtt_samples
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let rto_stats t = t.rto_stats
