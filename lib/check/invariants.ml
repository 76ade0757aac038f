(* The protocol-invariant monitors.

   A monitor is a small state machine over probe events; it answers with
   a violation detail when an event breaks its rule.  Its [reads] lists
   the event kinds the rule looks at, and the sink (sink.ml) routes it
   only those and [Sim_start]: a kind missing from [reads] silences the
   rule on it.  Monitors are kept as constructors so each checker run
   gets fresh state, and each monitor resets itself on [Sim_start]
   (scenarios create several simulations in sequence; identities that
   are per-simulation restart).

   The monitors cover the protocol and engine properties the repository
   relies on:

   - the simulation clock never moves backwards,
   - cumulative acknowledgements (sent and received-side [snd_una]) are
     monotone per channel,
   - a channel never has more than [Params.tx_window] packets outstanding,
   - in-order exactly-once delivery out of each channel,
   - no duplicate message delivery to the application layer,
   - every armed RTO lies within [rto_min, rto_max],
   - an ivar is filled at most once,
   - semaphore permit counts follow the accounting identity
     permits = created + released - acquired, and never go negative,
   - a switch sets CE only when the egress queue really stood at or above
     the configured marking threshold,
   - a segment covered by a received SACK block is never retransmitted
     while the block still stands. *)

open Engine

type monitor = {
  name : string;
  reads : Probe.Kind.t list;
  on_event : now:int -> Probe.event -> string option;
}

(* ---------------- monitors ---------------- *)

let clock_monotone () =
  let last = ref min_int in
  {
    name = "clock-monotone";
    reads = Probe.Kind.[ Clock ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            last := min_int;
            None
        | Probe.Clock { now } ->
            if now < !last then
              Some
                (Printf.sprintf "clock moved backwards: %dns after %dns" now
                   !last)
            else begin
              last := now;
              None
            end
        | _ -> None);
  }

(* Channel uids are process-unique, so cross-simulation reuse cannot alias;
   the tables are still cleared on Sim_start to bound their size. *)
let monotone_per_chan name kind proj =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    name;
    reads = [ kind ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset tbl;
            None
        | _ -> (
            match proj ev with
            | None -> None
            | Some (chan, node, peer, v) -> (
                match Hashtbl.find_opt tbl chan with
                | Some last when v < last ->
                    Some
                      (Printf.sprintf
                         "chan#%d (%d->%d): value regressed to %d after %d"
                         chan node peer v last)
                | _ ->
                    Hashtbl.replace tbl chan v;
                    None)));
  }

let ack_tx_monotone () =
  monotone_per_chan "ack-monotone" Probe.Kind.Ack_tx (function
    | Probe.Ack_tx { chan; node; peer; cum_seq } ->
        Some (chan, node, peer, cum_seq)
    | _ -> None)

let snd_una_monotone () =
  monotone_per_chan "snd-una-monotone" Probe.Kind.Snd_una (function
    | Probe.Snd_una { chan; node; peer; snd_una } ->
        Some (chan, node, peer, snd_una)
    | _ -> None)

let window_bound () =
  {
    name = "window-bound";
    reads = Probe.Kind.[ Window ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Window { chan; node; peer; outstanding; limit } ->
            if outstanding < 0 || outstanding > limit then
              Some
                (Printf.sprintf
                   "chan#%d (%d->%d): %d packets outstanding, window %d"
                   chan node peer outstanding limit)
            else None
        | _ -> None);
  }

(* The channel contract is stronger than no-duplicates: delivery out of a
   channel is exactly the sequence 0, 1, 2, ... — so track the expected
   next sequence and flag any duplicate, gap or reordering. *)
let chan_deliver_in_order () =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    name = "chan-deliver-in-order";
    reads = Probe.Kind.[ Chan_deliver ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset tbl;
            None
        | Probe.Chan_deliver { chan; node; peer; seq } ->
            let expected =
              Option.value (Hashtbl.find_opt tbl chan) ~default:0
            in
            if seq <> expected then
              Some
                (Printf.sprintf
                   "chan#%d (%d<-%d): delivered seq %d, expected %d" chan
                   node peer seq expected)
            else begin
              Hashtbl.replace tbl chan (expected + 1);
              None
            end
        | _ -> None);
  }

(* Local deliveries carry msg_id -1 and are exempt (they are not uniquely
   identified); everything else must reach a node's application layer at
   most once per (source, epoch, message) — a rebooted sender restarts its
   message ids, so the epoch is part of the identity. *)
let msg_deliver_once () =
  let seen : (int * int * int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  {
    name = "msg-deliver-once";
    reads = Probe.Kind.[ Msg_deliver ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset seen;
            None
        | Probe.Msg_deliver { node; src; port; msg_id; epoch } ->
            if msg_id < 0 then None
            else if Hashtbl.mem seen (node, src, epoch, msg_id) then
              Some
                (Printf.sprintf
                   "node %d: message %d from %d ep %d (port %d) delivered \
                    twice"
                   node msg_id src epoch port)
            else begin
              Hashtbl.add seen (node, src, epoch, msg_id) ();
              None
            end
        | _ -> None);
  }

let rto_bounds () =
  {
    name = "rto-bounds";
    reads = Probe.Kind.[ Rto_armed ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Rto_armed { chan; node; peer; rto_ns; lo_ns; hi_ns } ->
            if rto_ns < lo_ns || rto_ns > hi_ns then
              Some
                (Printf.sprintf
                   "chan#%d (%d->%d): armed RTO %dns outside [%dns, %dns]"
                   chan node peer rto_ns lo_ns hi_ns)
            else None
        | _ -> None);
  }

let ivar_single_fill () =
  let filled : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  {
    name = "ivar-single-fill";
    reads = Probe.Kind.[ Ivar_fill ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset filled;
            None
        | Probe.Ivar_fill { id } ->
            if Hashtbl.mem filled id then
              Some (Printf.sprintf "ivar#%d filled twice" id)
            else begin
              Hashtbl.add filled id ();
              None
            end
        | _ -> None);
  }

(* Checked as an accounting identity rather than a bound against the
   initial permit count: Channel.teardown intentionally over-releases its
   window to wake blocked senders, so permits may legitimately exceed the
   creation value — but they must always equal
   created + released - acquired, and never be negative. *)
let sem_balance () =
  let expected : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let check id n permits op =
    match Hashtbl.find_opt expected id with
    | None -> None  (* created before the probe was installed *)
    | Some e ->
        let e = if op = `Acquire then e - n else e + n in
        Hashtbl.replace expected id e;
        if permits <> e then
          Some
            (Printf.sprintf
               "sem#%d: reported %d permits, accounting expects %d" id
               permits e)
        else if permits < 0 then
          Some (Printf.sprintf "sem#%d: negative permits %d" id permits)
        else None
  in
  {
    name = "sem-balance";
    reads = Probe.Kind.[ Sem_create; Sem_acquire; Sem_release ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset expected;
            None
        | Probe.Sem_create { id; permits } ->
            Hashtbl.replace expected id permits;
            None
        | Probe.Sem_acquire { id; n; permits } ->
            check id n permits `Acquire
        | Probe.Sem_release { id; n; permits } ->
            check id n permits `Release
        | _ -> None);
  }

(* A NAPI-style poll pass may process fewer descriptors than its budget
   (that is how the driver decides to re-enable interrupts) but never
   more: the budget is the livelock-mitigation contract. *)
let poll_budget () =
  {
    name = "poll-budget";
    reads = Probe.Kind.[ Poll_pass ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Poll_pass { host; processed; budget } ->
            if processed < 0 || processed > budget then
              Some
                (Printf.sprintf
                   "%s: poll pass processed %d descriptors, budget %d" host
                   processed budget)
            else None
        | _ -> None);
  }

(* Once a message from a sender's epoch [e] has been delivered at a node,
   no message from an older epoch of the same sender may be delivered
   there: stale-epoch frames must be rejected at the CLIC module, so a
   delivery from a pre-crash epoch after the reboot was noticed is the
   recovery protocol failing. *)
let epoch_monotone_delivery () =
  let newest : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    name = "epoch-monotone-delivery";
    reads = Probe.Kind.[ Msg_deliver ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset newest;
            None
        | Probe.Msg_deliver { node; src; port = _; msg_id; epoch } ->
            if msg_id < 0 then None  (* local deliveries carry the node's
                                        own epoch trivially *)
            else begin
              match Hashtbl.find_opt newest (node, src) with
              | Some e when epoch < e ->
                  Some
                    (Printf.sprintf
                       "node %d: delivery from %d at stale epoch %d after \
                        epoch %d was seen"
                       node src epoch e)
              | _ ->
                  Hashtbl.replace newest (node, src) epoch;
                  None
            end
        | _ -> None);
  }

(* The kernel pool's reported [used] must track the sum of its own
   alloc/free events, stay within [0, capacity], and a free may never
   exceed what is allocated — across crashes too: Clic_module.shutdown
   returns staged backlog bytes, so a crash must not leave the identity
   broken (each boot's pool has a distinct name). *)
let pool_balance () =
  let pools : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let check pool ~delta ~used ~capacity =
    let expected, cap =
      match Hashtbl.find_opt pools pool with
      | Some (e, c) -> (e + delta, max c capacity)
      | None -> (used, capacity)  (* first sighting: adopt *)
    in
    Hashtbl.replace pools pool (expected, cap);
    if used <> expected then
      Some
        (Printf.sprintf
           "pool %s: reported %dB used, alloc/free accounting expects %dB"
           pool used expected)
    else if used < 0 then
      Some (Printf.sprintf "pool %s: negative usage %dB" pool used)
    else if cap > 0 && used > cap then
      Some
        (Printf.sprintf "pool %s: %dB used exceeds capacity %dB" pool used
           cap)
    else None
  in
  {
    name = "pool-balance";
    reads = Probe.Kind.[ Pool_alloc; Pool_free ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset pools;
            None
        | Probe.Pool_alloc { pool; bytes; used; capacity } ->
            check pool ~delta:bytes ~used ~capacity
        | Probe.Pool_free { pool; bytes; used } ->
            check pool ~delta:(-bytes) ~used ~capacity:0
        | _ -> None);
  }

(* A flow-controlled MAC must never put a frame on the wire between the
   PAUSE that gated it and the matching resume.  Tx_wire events are only
   emitted by pause-capable NICs, so legacy configurations are exempt by
   construction. *)
let no_tx_while_paused () =
  let paused : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  {
    name = "no-tx-while-paused";
    reads = Probe.Kind.[ Pause_state; Tx_wire ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset paused;
            None
        | Probe.Pause_state { host; paused = p } ->
            if p then Hashtbl.replace paused host ()
            else Hashtbl.remove paused host;
            None
        | Probe.Tx_wire { host } ->
            if Hashtbl.mem paused host then
              Some
                (Printf.sprintf "%s: frame transmitted while PAUSEd" host)
            else None
        | _ -> None);
  }

(* The switch's shared-buffer ledger: reported occupancy must track the
   sum of its own charge/release deltas (adopting the first sighting, as
   the probe sink may attach mid-run) and stay within [0, total]. *)
let switch_buffer_ledger () =
  let switches : (string, int) Hashtbl.t = Hashtbl.create 4 in
  {
    name = "switch-buffer-ledger";
    reads = Probe.Kind.[ Switch_buffer ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset switches;
            None
        | Probe.Switch_buffer { switch; port = _; delta; occupied; total } ->
            let expected =
              match Hashtbl.find_opt switches switch with
              | Some e -> e + delta
              | None -> occupied  (* first sighting: adopt *)
            in
            Hashtbl.replace switches switch expected;
            if occupied <> expected then
              Some
                (Printf.sprintf
                   "switch %s: reported %dB occupied, charge/release \
                    accounting expects %dB"
                   switch occupied expected)
            else if occupied < 0 then
              Some
                (Printf.sprintf "switch %s: negative occupancy %dB" switch
                   occupied)
            else if occupied > total then
              Some
                (Printf.sprintf
                   "switch %s: %dB occupied exceeds the %dB shared buffer"
                   switch occupied total)
            else None
        | _ -> None);
  }

(* A switch provisioned for losslessness (PAUSE on, bounded uplinks,
   shared buffer covering every port's watermark plus in-flight spill)
   must never drop a frame; any Switch_drop flagged protected is the
   flow-control machinery failing its contract. *)
let zero_loss_when_protected () =
  {
    name = "zero-loss-when-protected";
    reads = Probe.Kind.[ Switch_drop ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Switch_drop { switch; port; ingress; protected } ->
            if protected then
              Some
                (Printf.sprintf
                   "switch %s: %s drop on port %d despite lossless \
                    provisioning"
                   switch
                   (if ingress then "ingress" else "egress")
                   port)
            else None
        | _ -> None);
  }

(* ECN marking is tied to real congestion: a switch may set CE only when
   the egress queue at enqueue time stood at or above the configured
   threshold, and only if a threshold was configured at all. *)
let ecn_mark_above_threshold () =
  {
    name = "ecn-mark-above-threshold";
    reads = Probe.Kind.[ Ecn_mark ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Ecn_mark { switch; port; occupied; threshold } ->
            if threshold <= 0 then
              Some
                (Printf.sprintf
                   "switch %s: CE set on port %d with no threshold \
                    configured (%d)"
                   switch port threshold)
            else if occupied < threshold then
              Some
                (Printf.sprintf
                   "switch %s: CE set on port %d at %dB occupancy, below \
                    the %dB threshold"
                   switch port occupied threshold)
            else None
        | _ -> None);
  }

(* Selective retransmission must honour the peer's SACKs: once a sender
   has seen a SACK block cover a sequence number, retransmitting it while
   the block still stands (i.e. before the cumulative ack retires it) is
   wasted wire — exactly the waste the SACK scheme exists to avoid.  The
   simulator never reneges, so a standing block is authoritative. *)
let sack_no_spurious_retx () =
  let sacked : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  {
    name = "sack-no-spurious-retx";
    reads = Probe.Kind.[ Sack_rx; Snd_una; Chan_retx ];
    on_event =
      (fun ~now:_ ev ->
        match ev with
        | Probe.Sim_start ->
            Hashtbl.reset sacked;
            None
        | Probe.Sack_rx { chan; blocks; _ } ->
            let set =
              match Hashtbl.find_opt sacked chan with
              | Some s -> s
              | None ->
                  let s = Hashtbl.create 16 in
                  Hashtbl.add sacked chan s;
                  s
            in
            List.iter
              (fun (start, stop) ->
                for seq = start to stop - 1 do
                  Hashtbl.replace set seq ()
                done)
              blocks;
            None
        | Probe.Snd_una { chan; snd_una; _ } -> (
            match Hashtbl.find_opt sacked chan with
            | None -> None
            | Some set ->
                (* the cumulative ack retired everything below it *)
                Hashtbl.filter_map_inplace
                  (fun seq () -> if seq < snd_una then None else Some ())
                  set;
                None)
        | Probe.Chan_retx { chan; node; peer; seq } -> (
            match Hashtbl.find_opt sacked chan with
            | Some set when Hashtbl.mem set seq ->
                Some
                  (Printf.sprintf
                     "chan#%d (%d->%d): retransmitted seq %d still covered \
                      by a standing SACK"
                     chan node peer seq)
            | _ -> None)
        | _ -> None);
  }

let monitors =
  [
    clock_monotone;
    ack_tx_monotone;
    snd_una_monotone;
    window_bound;
    chan_deliver_in_order;
    msg_deliver_once;
    rto_bounds;
    ivar_single_fill;
    sem_balance;
    poll_budget;
    epoch_monotone_delivery;
    pool_balance;
    no_tx_while_paused;
    switch_buffer_ledger;
    zero_loss_when_protected;
    ecn_mark_above_threshold;
    sack_no_spurious_retx;
  ]

let create_all () = List.map (fun ctor -> ctor ()) monitors
