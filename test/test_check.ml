(* Tests for the analysis layer: the sim tie-break determinism hook, the
   lifecycle sanitizer's true positives, the invariant monitors, and the
   determinism detector — including that the whole checker runs a real
   scenario clean end to end. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Seeded tie-break: same set of same-instant events, permuted order *)

let fire_order ?tie_break () =
  let sim = Sim.create ?tie_break () in
  let order = ref [] in
  for i = 0 to 15 do
    ignore (Sim.schedule sim ~after:100 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  List.rev !order

let test_sim_tie_break () =
  let fifo = fire_order () in
  Alcotest.(check (list int))
    "no seed: scheduling order"
    (List.init 16 Fun.id)
    fifo;
  let seeded = fire_order ~tie_break:42 () in
  Alcotest.(check (list int))
    "seeded run is a permutation"
    (List.init 16 Fun.id)
    (List.sort compare seeded);
  check_bool "seed 42 actually permutes" true (seeded <> fifo);
  Alcotest.(check (list int))
    "same seed, same order" seeded
    (fire_order ~tie_break:42 ())

(* ------------------------------------------------------------------ *)
(* Lifecycle sanitizer true positives (synthetic event streams) *)

let lifecycle_rules ?(leak_check = true) evs =
  let l = Check.Lifecycle.create ~leak_check () in
  List.iter (Check.Lifecycle.on_event l) evs;
  List.map (fun v -> v.Check.Violation.rule) (Check.Lifecycle.finish l)

let alloc id =
  Probe.Obj_alloc
    { kind = Probe.Skb; id; bytes = 1500; owner = Probe.App; where = "test" }

let free id = Probe.Obj_free { kind = Probe.Skb; id; where = "test" }

let transfer id =
  Probe.Obj_transfer
    { kind = Probe.Skb; id; owner = Probe.Driver; where = "test" }

let test_lifecycle_double_free () =
  Alcotest.(check (list string))
    "double free caught" [ "double-free" ]
    (lifecycle_rules [ alloc 1; free 1; free 1 ])

let test_lifecycle_use_after_free () =
  Alcotest.(check (list string))
    "use after free caught" [ "use-after-free" ]
    (lifecycle_rules [ alloc 2; transfer 2; free 2; transfer 2 ])

let test_lifecycle_leak () =
  Alcotest.(check (list string))
    "leak at sim end caught" [ "leak" ]
    (lifecycle_rules [ alloc 3 ]);
  Alcotest.(check (list string))
    "leak check can be waived" []
    (lifecycle_rules ~leak_check:false [ alloc 3 ])

let test_lifecycle_pool_leak () =
  Alcotest.(check (list string))
    "outstanding pool bytes caught" [ "pool-leak" ]
    (lifecycle_rules
       [ Probe.Pool_alloc { pool = "p"; bytes = 64; used = 64; capacity = 1024 } ])

let test_lifecycle_clean () =
  Alcotest.(check (list string))
    "balanced lifecycle is clean" []
    (lifecycle_rules [ alloc 4; transfer 4; free 4 ])

(* The [peak live objects N] note: a tally of live objects, lowered by the
   first free only, and restarted at every simulation boundary. *)
let lifecycle_peak evs =
  let l = Check.Lifecycle.create ~leak_check:false () in
  List.iter (Check.Lifecycle.on_event l) evs;
  List.hd (Check.Lifecycle.notes l)

let test_lifecycle_peak_tally () =
  let peak n = Printf.sprintf "peak live objects %d" n in
  let check_note = Alcotest.(check string) in
  check_note "allocations raise the count" (peak 3)
    (lifecycle_peak [ alloc 1; alloc 2; alloc 3 ]);
  check_note "frees lower it" (peak 2)
    (lifecycle_peak [ alloc 1; alloc 2; free 1; free 2; alloc 3; alloc 4 ]);
  check_note "a double free lowers it once" (peak 3)
    (lifecycle_peak [ alloc 1; alloc 2; free 1; free 1; alloc 3; alloc 4 ]);
  Alcotest.(check (list string))
    "allocating a live id again is caught" [ "double-alloc" ]
    (lifecycle_rules ~leak_check:false [ alloc 1; alloc 1 ]);
  check_note "and leaves the count unchanged" (peak 2)
    (lifecycle_peak [ alloc 1; alloc 1; alloc 2 ]);
  check_note "a freed id allocated again counts once" (peak 2)
    (lifecycle_peak [ alloc 1; free 1; alloc 1; alloc 2 ]);
  check_note "leaks are not carried across Sim_start" (peak 2)
    (lifecycle_peak [ alloc 1; alloc 2; Probe.Sim_start; alloc 3 ])

(* Findings quote each object's history as text, oldest step first, with
   at most 8 steps: the allocation and the newest 7.  An skbuff and a ring
   buffer with the same id are two objects. *)
let test_lifecycle_backtrace_text () =
  let details evs =
    let l = Check.Lifecycle.create ~leak_check:true () in
    List.iter (Check.Lifecycle.on_event l) evs;
    List.map (fun v -> v.Check.Violation.detail) (Check.Lifecycle.finish l)
  in
  let ring = Probe.Rx_buffer in
  Alcotest.(check (list string))
    "the skbuff leaks, with its history; the ring buffer does not"
    [
      "skbuff#7 (1500B, owner driver) never freed; t=5ns alloc at test \
       (owner app); t=9ns transfer to driver at test";
    ]
    (details
       [
         Probe.Clock { now = 5 };
         alloc 7;
         Probe.Obj_alloc
           {
             kind = ring;
             id = 7;
             bytes = 2048;
             owner = Probe.Nic;
             where = "ring";
           };
         Probe.Clock { now = 9 };
         transfer 7;
         Probe.Obj_free { kind = ring; id = 7; where = "bh" };
       ]);
  Alcotest.(check (list string))
    "a double free quotes the first"
    [ "skbuff#1 freed again at test; t=0ns alloc at test (owner app); t=0ns \
       free at test" ]
    (details [ alloc 1; free 1; free 1 ]);
  let busy =
    (alloc 2 :: List.init 10 (fun _ -> transfer 2)) @ [ free 2; free 2 ]
  in
  match details busy with
  | [ d ] ->
      let steps = String.split_on_char ';' d in
      check_int "allocation plus the newest 7 steps" 9 (List.length steps);
      check_bool "the allocation is kept" true
        (contains (List.nth steps 1) "alloc at test")
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

(* The same double-free caught through the real instrumentation: a probe
   sink sees Os.Skbuff.release called twice on a real buffer. *)
let test_skbuff_double_free_probed () =
  let l = Check.Lifecycle.create ~leak_check:false () in
  Probe.install (Check.Lifecycle.on_event l);
  Fun.protect ~finally:Probe.uninstall (fun () ->
      let skb = Os_model.Skbuff.of_kernel ~header_bytes:42 1400 in
      Os_model.Skbuff.release skb ~where:"test:first";
      Os_model.Skbuff.release skb ~where:"test:second");
  match Check.Lifecycle.finish l with
  | [ v ] ->
      Alcotest.(check string) "rule" "double-free" v.Check.Violation.rule;
      check_bool "backtrace names both code points" true
        (contains v.Check.Violation.detail "test:first"
        && contains v.Check.Violation.detail "test:second")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Invariant monitors *)

let is_invariant (v : Check.Violation.t) =
  String.starts_with ~prefix:"invariant:" v.pass

(* The invariant findings of a stream fed through the checker's sink,
   which routes each event only to the monitors that read it. *)
let routed_findings evs =
  let sink = Check.Sink.create () in
  List.iter (Check.Sink.on_event sink) evs;
  List.filter is_invariant (Check.Sink.finish sink)

(* The monitors that fire on a stream, each named once, in the order of
   their first finding. *)
let monitor_hits evs =
  List.fold_left
    (fun names (v : Check.Violation.t) ->
      if List.mem v.rule names then names else names @ [ v.rule ])
    [] (routed_findings evs)

let deliver seq = Probe.Chan_deliver { chan = 1; node = 0; peer = 1; seq }

let test_invariant_duplicate_delivery () =
  Alcotest.(check (list string))
    "duplicate channel delivery caught" [ "chan-deliver-in-order" ]
    (monitor_hits [ deliver 0; deliver 1; deliver 1 ]);
  Alcotest.(check (list string))
    "sequence gap caught" [ "chan-deliver-in-order" ]
    (monitor_hits [ deliver 0; deliver 2 ]);
  Alcotest.(check (list string))
    "in-order delivery clean" []
    (monitor_hits [ deliver 0; deliver 1; deliver 2 ])

let test_invariant_msg_once () =
  let msg id = Probe.Msg_deliver { node = 0; src = 1; port = 7; msg_id = id; epoch = 0 } in
  Alcotest.(check (list string))
    "duplicate app delivery caught" [ "msg-deliver-once" ]
    (monitor_hits [ msg 5; msg 5 ]);
  Alcotest.(check (list string)) "distinct ids clean" []
    (monitor_hits [ msg 5; msg 6 ])

let test_invariant_ack_monotone () =
  let ack c = Probe.Ack_tx { chan = 1; node = 0; peer = 1; cum_seq = c } in
  Alcotest.(check (list string))
    "cumulative ack regression caught" [ "ack-monotone" ]
    (monitor_hits [ ack 4; ack 2 ])

let test_invariant_window_bound () =
  let w outstanding =
    Probe.Window { chan = 1; node = 0; peer = 1; outstanding; limit = 8 }
  in
  Alcotest.(check (list string))
    "window overrun caught" [ "window-bound" ]
    (monitor_hits [ w 9 ]);
  Alcotest.(check (list string)) "full window is legal" [] (monitor_hits [ w 8 ])

let test_invariant_poll_budget () =
  let pass processed =
    Probe.Poll_pass { host = "host1"; processed; budget = 4 }
  in
  Alcotest.(check (list string))
    "budget overrun caught" [ "poll-budget" ]
    (monitor_hits [ pass 5 ]);
  Alcotest.(check (list string))
    "negative count caught" [ "poll-budget" ]
    (monitor_hits [ pass (-1) ]);
  Alcotest.(check (list string))
    "full-budget pass is legal" []
    (monitor_hits [ pass 4; pass 0 ])

let test_invariant_epoch_monotone () =
  let msg ~epoch id =
    Probe.Msg_deliver { node = 0; src = 1; port = 7; msg_id = id; epoch }
  in
  Alcotest.(check (list string))
    "stale-epoch delivery caught" [ "epoch-monotone-delivery" ]
    (monitor_hits [ msg ~epoch:2 0; msg ~epoch:1 1 ]);
  Alcotest.(check (list string))
    "epoch may only grow" []
    (monitor_hits [ msg ~epoch:0 0; msg ~epoch:1 1; msg ~epoch:1 2 ])

let test_invariant_pool_balance () =
  let palloc used bytes =
    Probe.Pool_alloc { pool = "kmem9"; bytes; used; capacity = 1024 }
  in
  let pfree used bytes = Probe.Pool_free { pool = "kmem9"; bytes; used } in
  Alcotest.(check (list string))
    "balanced alloc/free clean" []
    (monitor_hits [ palloc 64 64; palloc 96 32; pfree 32 64; pfree 0 32 ]);
  Alcotest.(check (list string))
    "reported usage drifting from the event stream caught"
    [ "pool-balance" ]
    (monitor_hits [ palloc 64 64; pfree 40 64 ]);
  Alcotest.(check (list string))
    "usage beyond capacity caught" [ "pool-balance" ]
    (monitor_hits [ palloc 1024 1024; palloc 1088 64 ])

let test_invariant_sack_no_spurious_retx () =
  let sack blocks = Probe.Sack_rx { chan = 1; node = 0; peer = 1; blocks } in
  let una snd_una = Probe.Snd_una { chan = 1; node = 0; peer = 1; snd_una } in
  let retx seq = Probe.Chan_retx { chan = 1; node = 0; peer = 1; seq } in
  let sacked = [ "sack-no-spurious-retx" ] in
  Alcotest.(check (list string))
    "retransmitting inside a standing SACK block caught" sacked
    (monitor_hits [ sack [ (4, 8) ]; retx 5 ]);
  Alcotest.(check (list string))
    "segments outside the block are clean" []
    (monitor_hits [ sack [ (4, 8) ]; retx 3; retx 8 ]);
  Alcotest.(check (list string))
    "a snd_una past the seq retires it" []
    (monitor_hits [ sack [ (4, 8) ]; una 6; retx 5 ]);
  Alcotest.(check (list string))
    "but not the seqs at or above it" sacked
    (monitor_hits [ sack [ (4, 8) ]; una 6; retx 6 ]);
  Alcotest.(check (list string))
    "Sim_start clears the blocks" []
    (monitor_hits [ sack [ (4, 8) ]; Probe.Sim_start; retx 5 ])

let check_hits msg expected evs =
  Alcotest.(check (list string)) msg expected (monitor_hits evs)

let clock now = Probe.Clock { now }

let test_invariant_clock_monotone () =
  let hit = [ "clock-monotone" ] in
  check_hits "clock moving backwards caught" hit [ clock 100; clock 40 ];
  check_hits "a clock may stand still or advance" []
    [ clock 40; clock 40; clock 100 ];
  check_hits "Sim_start restarts the clock" []
    [ clock 100; Probe.Sim_start; clock 40 ]

let test_invariant_snd_una_monotone () =
  let una ?(chan = 1) snd_una =
    Probe.Snd_una { chan; node = 0; peer = 1; snd_una }
  in
  let hit = [ "snd-una-monotone" ] in
  check_hits "snd_una regression caught" hit [ una 4; una 2 ];
  check_hits "snd_una may stand still or advance, per channel" []
    [ una 4; una 4; una 6; una ~chan:2 1 ];
  check_hits "Sim_start forgets every channel" []
    [ una 4; Probe.Sim_start; una 2 ]

let test_invariant_rto_bounds () =
  let rto rto_ns =
    Probe.Rto_armed
      { chan = 1; node = 0; peer = 1; rto_ns; lo_ns = 100; hi_ns = 1000 }
  in
  let hit = [ "rto-bounds" ] in
  check_hits "RTO below rto_min caught" hit [ rto 99 ];
  check_hits "RTO above rto_max caught" hit [ rto 1001 ];
  check_hits "both bounds are legal" [] [ rto 100; rto 1000; rto 500 ]

let test_invariant_ivar_single_fill () =
  let fill id = Probe.Ivar_fill { id } in
  check_hits "second fill caught" [ "ivar-single-fill" ] [ fill 3; fill 3 ];
  check_hits "distinct ivars clean" [] [ fill 3; fill 4 ];
  check_hits "Sim_start forgets the fills" []
    [ fill 3; Probe.Sim_start; fill 3 ]

let test_invariant_sem_balance () =
  let create permits = Probe.Sem_create { id = 1; permits } in
  let acquire ?(id = 1) n permits = Probe.Sem_acquire { id; n; permits } in
  let release n permits = Probe.Sem_release { id = 1; n; permits } in
  let hit = [ "sem-balance" ] in
  check_hits "acquires and releases that balance are clean" []
    [ create 2; acquire 1 1; acquire 1 0; release 2 2 ];
  check_hits "miscounted acquire caught" hit [ create 2; acquire 1 0 ];
  check_hits "miscounted release caught" hit
    [ create 2; acquire 1 1; release 1 3 ];
  check_hits "negative permits caught" hit [ create 0; acquire 1 (-1) ];
  check_hits "an over-release the accounting expects is legal" []
    [ create 1; release 5 6 ];
  check_hits "a semaphore created before the sink is not judged" []
    [ acquire ~id:9 1 7 ]

let test_invariant_no_tx_while_paused () =
  let pause host paused = Probe.Pause_state { host; paused } in
  let tx host = Probe.Tx_wire { host } in
  check_hits "frame sent while PAUSEd caught" [ "no-tx-while-paused" ]
    [ pause "nic0" true; tx "nic0" ];
  check_hits "other hosts and resumed hosts may send" []
    [ pause "nic0" true; tx "nic1"; pause "nic0" false; tx "nic0" ];
  check_hits "Sim_start forgets the pauses" []
    [ pause "nic0" true; Probe.Sim_start; tx "nic0" ]

let test_invariant_switch_buffer_ledger () =
  let buf delta occupied =
    Probe.Switch_buffer
      { switch = "sw0"; port = 1; delta; occupied; total = 1000 }
  in
  let hit = [ "switch-buffer-ledger" ] in
  check_hits "ledger that follows its deltas is clean" []
    [ buf 100 150; buf 50 200; buf (-200) 0 ];
  check_hits "occupancy drifting from the deltas caught" hit
    [ buf 100 100; buf 50 200 ];
  check_hits "occupancy beyond the pool caught" hit
    [ buf 100 100; buf 1000 1100 ];
  check_hits "negative occupancy caught" hit [ buf 100 100; buf (-150) (-50) ]

let test_invariant_zero_loss_when_protected () =
  let drop ~ingress protected =
    Probe.Switch_drop { switch = "sw0"; port = 2; ingress; protected }
  in
  let hit = [ "zero-loss-when-protected" ] in
  check_hits "protected ingress drop caught" hit [ drop ~ingress:true true ];
  check_hits "protected egress drop caught" hit [ drop ~ingress:false true ];
  check_hits "unprotected drops are legal" []
    [ drop ~ingress:true false; drop ~ingress:false false ]

let test_invariant_ecn_mark_above_threshold () =
  let mark occupied threshold =
    Probe.Ecn_mark { switch = "sw0"; port = 2; occupied; threshold }
  in
  let hit = [ "ecn-mark-above-threshold" ] in
  check_hits "mark below the threshold caught" hit [ mark 10 20 ];
  check_hits "mark with no threshold configured caught" hit [ mark 50 0 ];
  check_hits "marks at or above the threshold are legal" []
    [ mark 20 20; mark 30 20 ]

(* One stream per monitor on which that monitor alone fires. *)
let doctored =
  let chan_ev f = f ~chan:1 ~node:0 ~peer:1 in
  let msg id epoch =
    Probe.Msg_deliver { node = 0; src = 1; port = 7; msg_id = id; epoch }
  in
  [
    ("clock-monotone", [ clock 100; clock 40 ]);
    ( "ack-monotone",
      chan_ev (fun ~chan ~node ~peer ->
          [
            Probe.Ack_tx { chan; node; peer; cum_seq = 4 };
            Probe.Ack_tx { chan; node; peer; cum_seq = 2 };
          ]) );
    ( "snd-una-monotone",
      chan_ev (fun ~chan ~node ~peer ->
          [
            Probe.Snd_una { chan; node; peer; snd_una = 4 };
            Probe.Snd_una { chan; node; peer; snd_una = 2 };
          ]) );
    ( "window-bound",
      chan_ev (fun ~chan ~node ~peer ->
          [ Probe.Window { chan; node; peer; outstanding = 9; limit = 8 } ]) );
    ("chan-deliver-in-order", [ deliver 0; deliver 2 ]);
    ("msg-deliver-once", [ msg 5 0; msg 5 0 ]);
    ( "rto-bounds",
      chan_ev (fun ~chan ~node ~peer ->
          [
            Probe.Rto_armed
              { chan; node; peer; rto_ns = 5; lo_ns = 100; hi_ns = 1000 };
          ]) );
    ( "ivar-single-fill",
      [ Probe.Ivar_fill { id = 3 }; Probe.Ivar_fill { id = 3 } ] );
    ( "sem-balance",
      [
        Probe.Sem_create { id = 1; permits = 2 };
        Probe.Sem_release { id = 1; n = 1; permits = 2 };
      ] );
    ( "poll-budget",
      [ Probe.Poll_pass { host = "host1"; processed = 5; budget = 4 } ] );
    ("epoch-monotone-delivery", [ msg 0 2; msg 1 1 ]);
    ( "pool-balance",
      [
        Probe.Pool_alloc
          { pool = "kmem9"; bytes = 64; used = 64; capacity = 1024 };
        Probe.Pool_free { pool = "kmem9"; bytes = 64; used = 40 };
      ] );
    ( "no-tx-while-paused",
      [
        Probe.Pause_state { host = "nic0"; paused = true };
        Probe.Tx_wire { host = "nic0" };
      ] );
    ( "switch-buffer-ledger",
      [
        Probe.Switch_buffer
          { switch = "sw0"; port = 1; delta = 10; occupied = 10; total = 1000 };
        Probe.Switch_buffer
          { switch = "sw0"; port = 1; delta = 10; occupied = 30; total = 1000 };
      ] );
    ( "zero-loss-when-protected",
      [
        Probe.Switch_drop
          { switch = "sw0"; port = 2; ingress = false; protected = true };
      ] );
    ( "ecn-mark-above-threshold",
      [
        Probe.Ecn_mark
          { switch = "sw0"; port = 2; occupied = 1; threshold = 20 };
      ] );
    ( "sack-no-spurious-retx",
      chan_ev (fun ~chan ~node ~peer ->
          [
            Probe.Sack_rx { chan; node; peer; blocks = [ (4, 8) ] };
            Probe.Chan_retx { chan; node; peer; seq = 5 };
          ]) );
  ]

let test_invariant_every_monitor_fires () =
  Alcotest.(check (list string))
    "one doctored stream per monitor, in create_all order"
    (List.map
       (fun (m : Check.Invariants.monitor) -> m.name)
       (Check.Invariants.create_all ()))
    (List.map fst doctored);
  List.iter
    (fun (name, evs) -> check_hits (name ^ " fires alone") [ name ] evs)
    doctored

(* One generator per probe constructor, in declaration order.  The value
   ranges are small so that random streams break rules often. *)
let event_gens =
  let open QCheck.Gen in
  let id = int_range 0 3 and n = int_range (-1) 4 and chan = int_range 1 2 in
  let host = oneofl [ "h0"; "h1" ] and name = oneofl [ "p0"; "p1" ] in
  let okind = oneofl Probe.[ Skb; Rx_buffer ] in
  let owner = oneofl Probe.[ App; Channel; Driver; Bh; Nic ] in
  let stage =
    oneofl
      Probe.Stage.
        [
          Module_tx; Driver_tx; Isr; Bottom_half; Poll; Module_rx;
          Copy_to_user; Dma; Frame; Paused; Busy;
        ]
  in
  let chan_ev f =
    map3 (fun chan node peer -> f ~chan ~node ~peer) chan id id
  in
  let blocks = list_size (int_range 0 2) (pair id (int_range 0 6)) in
  [
    return Probe.Sim_start;
    map (fun now -> Probe.Clock { now }) (int_range 0 20);
    map3
      (fun host stage start ->
        Probe.Span
          { host; track = Probe.Stage.track stage; stage; start;
            finish = start + 1 })
      host stage id;
    map (fun host -> Probe.Sched_run { host }) host;
    map (fun host -> Probe.Sched_block { host }) host;
    map (fun host -> Probe.Irq { host }) host;
    map2 (fun queue depth -> Probe.Queue_depth { queue; depth }) name n;
    map3
      (fun node dst msg_id ->
        Probe.Msg_send { node; dst; port = 7; msg_id; bytes = 64; epoch = 0 })
      id id id;
    map3
      (fun kind id owner ->
        Probe.Obj_alloc { kind; id; bytes = 64; owner; where = "gen" })
      okind id owner;
    map3
      (fun kind id owner ->
        Probe.Obj_transfer { kind; id; owner; where = "gen" })
      okind id owner;
    map2 (fun kind id -> Probe.Obj_free { kind; id; where = "gen" }) okind id;
    map3
      (fun pool bytes used ->
        Probe.Pool_alloc { pool; bytes; used; capacity = 3 })
      name n n;
    map3
      (fun pool bytes used -> Probe.Pool_free { pool; bytes; used })
      name n n;
    map (fun id -> Probe.Ivar_fill { id }) id;
    map2 (fun id permits -> Probe.Sem_create { id; permits }) id n;
    map3 (fun id n permits -> Probe.Sem_acquire { id; n; permits }) id n n;
    map3 (fun id n permits -> Probe.Sem_release { id; n; permits }) id n n;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun cum_seq -> Probe.Ack_tx { chan; node; peer; cum_seq }) n)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun cum_seq -> Probe.Ack_rx { chan; node; peer; cum_seq }) n)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun snd_una -> Probe.Snd_una { chan; node; peer; snd_una }) n)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map2
          (fun outstanding limit ->
            Probe.Window { chan; node; peer; outstanding; limit })
          n n)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun seq -> Probe.Chan_deliver { chan; node; peer; seq }) n)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        return (Probe.Chan_dead { chan; node; peer }))
    |> join;
    map3
      (fun src msg_id epoch ->
        Probe.Msg_deliver { node = 0; src; port = 7; msg_id; epoch })
      id n id;
    map3
      (fun src msg_id epoch ->
        Probe.Msg_recv { node = 0; src; port = 7; msg_id; epoch })
      id n id;
    chan_ev (fun ~chan ~node ~peer ->
        map3
          (fun rto_ns lo_ns hi_ns ->
            Probe.Rto_armed { chan; node; peer; rto_ns; lo_ns; hi_ns })
          n n n)
    |> join;
    map2 (fun host polling -> Probe.Rx_poll_mode { host; polling }) host bool;
    map3
      (fun host processed budget -> Probe.Poll_pass { host; processed; budget })
      host n n;
    map2 (fun pool level -> Probe.Pool_pressure { pool; level }) name id;
    map (fun host -> Probe.Tx_wire { host }) host;
    map2 (fun host paused -> Probe.Pause_state { host; paused }) host bool;
    map3
      (fun host sent quanta -> Probe.Pause_frame { host; sent; quanta })
      host bool id;
    map3
      (fun switch delta occupied ->
        Probe.Switch_buffer { switch; port = 1; delta; occupied; total = 3 })
      name n n;
    map3
      (fun switch ingress protected ->
        Probe.Switch_drop { switch; port = 1; ingress; protected })
      name bool bool;
    map3
      (fun switch occupied threshold ->
        Probe.Ecn_mark { switch; port = 1; occupied; threshold })
      name n n;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun blocks -> Probe.Sack_tx { chan; node; peer; blocks }) blocks)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun blocks -> Probe.Sack_rx { chan; node; peer; blocks }) blocks)
    |> join;
    chan_ev (fun ~chan ~node ~peer ->
        map (fun seq -> Probe.Chan_retx { chan; node; peer; seq }) n)
    |> join;
    map3
      (fun host mode active -> Probe.Gray_fault { host; mode; active })
      host name bool;
  ]

let test_probe_kind_index () =
  let rand = Random.State.make [| 7 |] in
  Alcotest.(check (list int))
    "one generator per constructor, indexed 0 .. count - 1 in order"
    (List.init Probe.Kind.count Fun.id)
    (List.map
       (fun gen -> Probe.Kind.index (Probe.kind (gen rand)))
       event_gens)

(* What the checker reported before routing: every event to every
   monitor, in create_all order, at the time of the latest Clock. *)
let broadcast_findings evs =
  let monitors = Check.Invariants.create_all () in
  let now = ref 0 in
  List.concat_map
    (fun ev ->
      (match ev with
      | Probe.Clock { now = n } -> now := n
      | Probe.Sim_start -> now := 0
      | _ -> ());
      List.filter_map
        (fun (m : Check.Invariants.monitor) ->
          Option.map
            (fun detail -> (m.name, !now, detail))
            (m.on_event ~now:!now ev))
        monitors)
    evs

let prop_routing_matches_broadcast =
  QCheck.Test.make ~count:300
    ~name:"invariants: routed sink reports what broadcast reports"
    (QCheck.make
       ~print:(fun evs ->
         String.concat " "
           (List.map
              (fun ev -> string_of_int (Probe.Kind.index (Probe.kind ev)))
              evs))
       QCheck.Gen.(list_size (int_range 0 150) (oneof event_gens)))
    (fun evs ->
      List.map
        (fun (v : Check.Violation.t) -> (v.rule, v.time_ns, v.detail))
        (routed_findings evs)
      = broadcast_findings evs)

(* ------------------------------------------------------------------ *)
(* Determinism trace hash *)

let hash_of evs =
  let d = Check.Determinism.create () in
  List.iter (Check.Determinism.on_event d) evs;
  Check.Determinism.result d

let test_determinism_hash () =
  let msg src id = Probe.Msg_deliver { node = 0; src; port = 7; msg_id = id; epoch = 0 } in
  (* cross-stream interleaving is not part of the logical trace *)
  Alcotest.(check string)
    "interleaving-invariant"
    (hash_of [ msg 1 0; msg 2 0; msg 1 1; msg 2 1 ])
    (hash_of [ msg 2 0; msg 1 0; msg 2 1; msg 1 1 ]);
  (* but per-stream content and order are *)
  check_bool "content-sensitive" true
    (hash_of [ msg 1 0; msg 1 1 ] <> hash_of [ msg 1 1; msg 1 0 ]);
  check_bool "delivery-sequence-sensitive" true
    (hash_of [ deliver 0; deliver 1 ]
    <> hash_of [ deliver 0; deliver 1; deliver 2 ]);
  (* independent channels: node 1's from peer 2 and from peer 23, whose
     stream keys share a prefix *)
  let from_peer peer =
    Probe.Chan_deliver { chan = 100 + peer; node = 1; peer; seq = 0 }
  in
  Alcotest.(check string)
    "channel keys do not depend on which channel shows first"
    (hash_of [ Probe.Sim_start; from_peer 23; from_peer 2 ])
    (hash_of [ Probe.Sim_start; from_peer 2; from_peer 23 ]);
  (* A delivery is named by its place in its own flow, so how node 0's
     two flows (to node 1 on port 7, to node 2 on port 8) shared its
     message-id counter does not matter. *)
  let send ?(bytes = 64) ~dst ~port msg_id =
    Probe.Msg_send { node = 0; dst; port; msg_id; bytes; epoch = 0 }
  in
  let recv ~node ~port msg_id =
    Probe.Msg_deliver { node; src = 0; port; msg_id; epoch = 0 }
  in
  Alcotest.(check string)
    "flows of one sender hash apart from its id counter"
    (hash_of
       [ send ~dst:1 ~port:7 0; send ~dst:2 ~port:8 1; send ~dst:1 ~port:7 2;
         send ~dst:2 ~port:8 3; recv ~node:1 ~port:7 0; recv ~node:2 ~port:8 1;
         recv ~node:1 ~port:7 2; recv ~node:2 ~port:8 3 ])
    (hash_of
       [ send ~dst:2 ~port:8 0; send ~dst:2 ~port:8 1; send ~dst:1 ~port:7 2;
         send ~dst:1 ~port:7 3; recv ~node:2 ~port:8 0; recv ~node:1 ~port:7 2;
         recv ~node:2 ~port:8 1; recv ~node:1 ~port:7 3 ]);
  (* ...while a reorder, a duplicate or a size change within one flow
     still moves the hash *)
  let flow ?(bytes = 64) delivered =
    hash_of
      ([ send ~dst:1 ~port:7 0; send ~bytes ~dst:1 ~port:7 1 ]
      @ List.map (recv ~node:1 ~port:7) delivered)
  in
  check_bool "per-flow reorder" true (flow [ 0; 1 ] <> flow [ 1; 0 ]);
  check_bool "per-flow duplicate" true (flow [ 0; 1 ] <> flow [ 0; 1; 1 ]);
  check_bool "per-flow size change" true
    (flow [ 0; 1 ] <> flow ~bytes:128 [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* The full checker, end to end *)

let quiet_scenario name run =
  {
    Check.Scenario.name;
    descr = name;
    report = (fun ~quick:_ _fmt -> run (); []);
    run = (fun _fmt -> run ());
  }

(* A deliberate hidden ordering race: eight same-instant events draw
   message ids from a shared counter, so the (source -> id) binding
   depends on same-instant firing order.  The seeded permutation runs
   must expose it. *)
let test_check_catches_race () =
  let sc =
    quiet_scenario "race" (fun () ->
        let sim = Sim.create () in
        let next = ref 0 in
        for src = 1 to 8 do
          ignore
            (Sim.schedule sim ~after:50 (fun () ->
                 let id = !next in
                 incr next;
                 Probe.emit
                   (Probe.Msg_deliver { node = 0; src; port = 1; msg_id = id; epoch = 0 })))
        done;
        Sim.run sim)
  in
  let diverges sc =
    List.exists
      (fun v -> v.Check.Violation.rule = "trace-divergence")
      (Check.run_scenario ~seeds:3 sc).Check.violations
  in
  check_bool "race detected as a trace divergence" true (diverges sc);
  (* The same race inside one flow: eight same-instant sends of different
     sizes from node 1 to node 0's port 1, delivered in send order, so
     which size is the flow's k-th message depends on firing order. *)
  let same_flow =
    quiet_scenario "same-flow race" (fun () ->
        let sim = Sim.create () in
        let next = ref 0 in
        for k = 1 to 8 do
          ignore
            (Sim.schedule sim ~after:50 (fun () ->
                 let msg_id = !next in
                 incr next;
                 Probe.emit
                   (Probe.Msg_send
                      { node = 1; dst = 0; port = 1; msg_id; bytes = 64 * k;
                        epoch = 0 });
                 Probe.emit
                   (Probe.Msg_deliver
                      { node = 0; src = 1; port = 1; msg_id; epoch = 0 })))
        done;
        Sim.run sim)
  in
  check_bool "same-flow race detected as a trace divergence" true
    (diverges same_flow)

(* The same shape without the shared counter is order-independent and
   must pass clean under every permutation. *)
let test_check_clean_synthetic () =
  let sc =
    quiet_scenario "no-race" (fun () ->
        let sim = Sim.create () in
        for src = 1 to 8 do
          ignore
            (Sim.schedule sim ~after:50 (fun () ->
                 Probe.emit
                   (Probe.Msg_deliver { node = 0; src; port = 1; msg_id = src; epoch = 0 })))
        done;
        Sim.run sim)
  in
  let r = Check.run_scenario ~seeds:3 sc in
  check_bool "clean" true (Check.ok r);
  check_int "baseline + 3 seeded runs" 4 r.Check.runs

(* Processes that raise from a helper: with backtraces recorded, the
   crash finding names the helper's line, through [Process.spawn]'s
   re-raise and the checker's catch, also when the raise itself happens
   inside the standard library. *)
let crash_line = ref 0

let raise_from_helper () =
  crash_line := __LINE__ + 1;
  raise (Invalid_argument "helper gave up")

let pop_line = ref 0

let pop_from_empty_queue () =
  let q : int Queue.t = Queue.create () in
  pop_line := __LINE__ + 1;
  ignore (Queue.pop q)

let test_check_crash_names_raise_site () =
  let crash_detail helper =
    let sc =
      quiet_scenario "crashing" (fun () ->
          let sim = Sim.create () in
          Process.spawn sim ~delay:10 helper;
          Sim.run sim)
    in
    let was = Printexc.backtrace_status () in
    Printexc.record_backtrace true;
    let r =
      Fun.protect
        ~finally:(fun () -> Printexc.record_backtrace was)
        (fun () -> Check.run_scenario ~seeds:0 sc)
    in
    match r.Check.violations with
    | [ v ] ->
        Alcotest.(check string)
          "rule" "uncaught-exception" v.Check.Violation.rule;
        v.Check.Violation.detail
    | vs -> Alcotest.failf "expected one crash finding, got %d" (List.length vs)
  in
  let detail = crash_detail raise_from_helper in
  Alcotest.(check string)
    "detail names the raise site"
    (Printf.sprintf
       "Invalid_argument(\"helper gave up\"), raised at test/test_check.ml:%d"
       !crash_line)
    detail;
  let detail = crash_detail pop_from_empty_queue in
  Alcotest.(check string)
    "a raise inside the standard library names its caller"
    (Printf.sprintf "Stdlib.Queue.Empty, raised at test/test_check.ml:%d"
       !pop_line)
    detail

(* A real two-node CLIC ping-pong through the whole stack: zero
   violations, zero leaks, stable logical trace across seeds. *)
let test_check_real_scenario_clean () =
  let sc =
    quiet_scenario "mini-pingpong" (fun () ->
        let c = Cluster.Net.create ~n:2 () in
        let pair = Cluster.Measure.clic_pair c ~a:0 ~b:1 () in
        ignore (Cluster.Measure.pingpong c pair ~size:1024 ~reps:4 ~warmup:1 ()))
  in
  let r = Check.run_scenario ~seeds:2 sc in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    r.Check.violations;
  check_bool "full stack runs clean" true (Check.ok r);
  check_bool "objects were actually tracked" true
    (List.exists
       (fun n -> n <> "peak live objects 0")
       r.Check.notes)

(* The registry's ext4, whose loaded run (bulk TCP beside a ping-pong)
   ends when the pinger does: clean with the leak check on, and the same
   logical trace hash under a seeded permutation as in the baseline. *)
let test_check_ext4_clean () =
  let sc = Option.get (Check.Scenario.find "ext4") in
  let r = Check.run_scenario ~seeds:1 sc in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    r.Check.violations;
  check_bool "clean" true (Check.ok r);
  check_int "baseline + 1 seeded run" 2 r.Check.runs;
  let peak =
    List.find_map
      (fun n -> Scanf.sscanf_opt n "peak live objects %d%!" Fun.id)
      r.Check.notes
  in
  check_bool "objects were tracked" true
    (match peak with Some n -> n > 0 | None -> false)

(* ------------------------------------------------------------------ *)
(* The chaos-soak harness *)

let test_soak_argument_checks () =
  check_bool "templates registered" true
    (List.length Check.Soak.template_names >= 5);
  check_bool "incast storm registered" true
    (List.mem "incast-storm" Check.Soak.template_names);
  Alcotest.(check (list int)) "CI seeds pinned" [ 101; 202; 303 ]
    Check.Soak.default_seeds;
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "trials <= 0 rejected" true
    (raises (fun () -> Check.Soak.run ~trials:0 ()));
  check_bool "unknown template rejected" true
    (raises (fun () -> Check.Soak.run ~only:[ "no-such-template" ] ()))

(* One seed over every template in quick mode, shared by the smoke and
   evidence tests. *)
let quick_soak = lazy (Check.Soak.run ~seeds:[ 101 ] ~quick:true ())

let test_soak_smoke () =
  (* The full harness — node crash/reboot, pool crunch, interrupt storm,
     composed link weather, incast stampede — must come back with zero
     violations and every stress axis evidenced. *)
  let r = Lazy.force quick_soak in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  List.iter (Printf.printf "missing evidence: %s\n") (Check.Soak.missing_evidence r);
  check_bool "soak clean with full evidence" true (Check.Soak.ok r);
  check_int "one trial per template ran"
    (List.length Check.Soak.template_names)
    (List.length r.Check.Soak.s_trials);
  let t = r.Check.Soak.s_tally in
  check_bool "a crash happened" true (t.crashes > 0);
  check_bool "hard watermark dropped frames" true (t.pool_drops > 0);
  check_bool "polling engaged" true (t.poll_switches > 0);
  check_bool "the switch dropped frames somewhere" true
    (Cluster.Tally.switch_drops t > 0);
  check_bool "802.3x PAUSE frames flowed" true
    (t.nic_pause_tx + t.switch_pause_tx > 0);
  check_bool "transmitters spent time XOFFed" true (t.tx_paused_ns > 0)

(* A seeded true positive for the evidence demands: the clean report with
   one demanded counter zeroed must bring back exactly that complaint, and
   fail [ok]; narrowing the template set waives it again. *)
let test_soak_missing_evidence () =
  let r = Lazy.force quick_soak in
  let starved =
    { r with Check.Soak.s_tally = { r.Check.Soak.s_tally with polled = 0 } }
  in
  Alcotest.(check (list string))
    "exactly the poll-pass complaint"
    [ "no packets were processed by poll passes" ]
    (Check.Soak.missing_evidence starved);
  check_bool "starved report fails" false (Check.Soak.ok starved);
  Alcotest.(check (list string))
    "soak-only count" [ "no switch was ever failed mid-trial" ]
    (Check.Soak.missing_evidence { r with s_switch_failures = 0 });
  Alcotest.(check (list string))
    "narrowed set waives the demands" []
    (Check.Soak.missing_evidence { starved with s_full_set = false })

let test_soak_incast_storm_focused () =
  (* The incast template alone, two seeds: the stampede must run under
     the full monitor set with zero violations in both fabrics, and both
     arms must leave their fingerprints (PAUSE signalling from the
     flow-controlled run, switch drops from the tail-drop run). *)
  let r =
    Check.Soak.run ~seeds:[ 11; 12 ] ~quick:true ~only:[ "incast-storm" ] ()
  in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  check_bool "incast storm runs clean" true (Check.Soak.ok r);
  List.iter
    (fun tr ->
      Alcotest.(check string)
        "template" "incast-storm" tr.Check.Soak.tr_template)
    r.Check.Soak.s_trials;
  let t = r.Check.Soak.s_tally in
  check_bool "tail-drop arm lost frames at the switch" true
    (Cluster.Tally.switch_drops t > 0);
  check_bool "flow-controlled arm got XOFFed" true
    (t.nic_pause_tx + t.switch_pause_tx > 0 && t.tx_paused_ns > 0);
  check_bool "traffic actually flowed" true (t.delivered > 0)

(* Satellite: the probe-enabled flag is consulted on the engine's hottest
   path, so a probe-off run and a probe-on run of a full scenario must
   render byte-identical output — observation cannot perturb behaviour. *)
let test_soak_fabric_cut_focused () =
  (* The fabric template alone: a spine failure plus a node crash on a
     2-spine leaf/spine, clean under the full monitor set, with frames
     actually crossing trunks and the spine really failing mid-trial. *)
  let r = Check.Soak.run ~seeds:[ 21 ] ~quick:true ~only:[ "fabric-cut" ] () in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    (Check.Soak.violations r);
  check_bool "fabric-cut runs clean" true (Check.Soak.ok r);
  let t = r.Check.Soak.s_tally in
  check_bool "frames crossed trunks" true (t.trunk_frames > 0);
  check_bool "a switch failed mid-trial" true
    (r.Check.Soak.s_switch_failures > 0);
  check_bool "a node crashed mid-trial" true (t.crashes > 0);
  check_bool "traffic actually flowed" true (t.delivered > 0)

(* Regression: the fabric-cut template crashes a node while its CLIC
   module drains a blocked backlog.  Under these seeds the drain used to
   pop the backlog that [shutdown] had already freed and cleared: an
   uncaught [Queue.Empty] (seed 38686) or a pool leak on kmem3 (seed
   38888).  Duplicate deliveries after a reboot are a separate defect. *)
let test_soak_fabric_cut_crash_drain () =
  let r =
    Check.Soak.run ~seeds:[ 38686; 38888 ] ~trials:1 ~only:[ "fabric-cut" ] ()
  in
  let bad =
    List.filter
      (fun v ->
        List.mem v.Check.Violation.rule
          [ "uncaught-exception"; "leak"; "pool-leak" ])
      (Check.Soak.violations r)
  in
  List.iter
    (fun v -> Printf.printf "unexpected: %s\n" (Check.Violation.to_string v))
    bad;
  check_int "no crash, leak or pool-leak finding" 0 (List.length bad);
  check_bool "no trial crashed" false
    (List.exists (fun t -> t.Check.Soak.tr_crashed) r.Check.Soak.s_trials)

let test_soak_short_rotation () =
  (* Two trials rotate through only the first two templates: a narrowed
     set, so the evidence demands are waived exactly as under [only]. *)
  let r = Check.Soak.run ~seeds:[ 101 ] ~trials:2 ~quick:true () in
  List.iter (Printf.printf "missing evidence: %s\n")
    (Check.Soak.missing_evidence r);
  check_bool "not the full template set" false r.Check.Soak.s_full_set;
  check_bool "short rotation passes" true (Check.Soak.ok r);
  check_bool "carries the narrowed note" true
    (List.mem "template set narrowed: evidence demands not enforced"
       r.Check.Soak.s_notes)

let test_probe_on_off_equivalence () =
  let sc =
    match Check.Scenario.find "ext3" with
    | Some sc -> sc
    | None -> Alcotest.fail "scenario ext3 not registered"
  in
  let render () =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    sc.Check.Scenario.run fmt;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  check_bool "probes start off" false (Probe.enabled ());
  let off = render () in
  let seen = ref 0 in
  Probe.install (fun _ -> incr seen);
  let on_ = Fun.protect ~finally:Probe.uninstall render in
  check_bool "probe saw the run" true (!seen > 0);
  check_bool "probes off again" false (Probe.enabled ());
  Alcotest.(check string) "identical rendered trace with probes on" off on_

(* ------------------------------------------------------------------ *)
(* SLO degradation contracts: validation and phase classification
   against a hand-built latency record *)

let mk_slo samples =
  let lats = Array.map snd samples in
  {
    Cluster.Workload.slo_requests = Array.length samples;
    slo_completed = Array.length samples;
    slo_timeouts = 0;
    slo_stranded = 0;
    slo_p50_us = Cluster.Workload.quantile lats 50.;
    slo_p99_us = Cluster.Workload.quantile lats 99.;
    slo_p999_us = Cluster.Workload.quantile lats 99.9;
    slo_mean_us = 0.;
    slo_max_us = 0.;
    slo_goodput_mbps = 0.;
    slo_elapsed = Time.ms 1.;
    slo_samples = samples;
  }

let test_slo_validate () =
  let expect msg c =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Check.Slo.validate c)
  in
  let d = Check.Slo.default in
  Check.Slo.validate d;
  expect "Slo.validate: healthy_p999_us <= 0"
    { d with Check.Slo.healthy_p999_us = 0. };
  expect "Slo.validate: bleed_ratio < 1" { d with Check.Slo.bleed_ratio = 0.9 };
  expect "Slo.validate: recovery_deadline <= 0"
    { d with Check.Slo.recovery_deadline = 0 }

(* A hand-built record: fault window [100us, 200us), recovery deadline
   50us.  Arrivals at 10/50us are healthy, 120/180us degraded, 210/240us
   inside the (unjudged) recovery window, 260/300us recovered. *)
let test_slo_evaluate_phases () =
  let c =
    {
      Check.Slo.healthy_p999_us = 100.;
      bleed_ratio = 3.;
      recovery_deadline = Time.us 50.;
    }
  in
  let us = Time.us in
  let eval lat_recovering lat_recovered =
    Check.Slo.evaluate c
      ~slo:
        (mk_slo
           [|
             (us 10., 40.);
             (us 50., 80.);
             (us 120., 250.);
             (us 180., 290.);
             (us 210., lat_recovering);
             (us 240., lat_recovering);
             (us 260., lat_recovered);
             (us 300., 60.);
           |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  let v = eval 9_000. 90. in
  check_int "healthy samples" 2 v.Check.Slo.v_healthy;
  check_int "degraded samples" 2 v.Check.Slo.v_degraded;
  check_int "recovered samples" 2 v.Check.Slo.v_recovered;
  Alcotest.(check (float 0.001)) "healthy p999" 80. v.Check.Slo.v_healthy_p999_us;
  Alcotest.(check (float 0.001)) "degraded p999" 290.
    v.Check.Slo.v_degraded_p999_us;
  check_bool "contract holds: recovery-window samples are never judged" true
    (Check.Slo.ok v);
  (* push the recovered tail over the healthy bound *)
  let v = eval 10. 900. in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "recovery-deadline"
        viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  (* a degraded tail above bleed_ratio * healthy bound trips
     bounded-bleed; healthy stays under its absolute bound *)
  let v =
    Check.Slo.evaluate c
      ~slo:
        (mk_slo
           [| (us 10., 40.); (us 120., 500.); (us 260., 60.) |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "bounded-bleed" viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  (* an empty phase voids the certification *)
  let v =
    Check.Slo.evaluate c
      ~slo:(mk_slo [| (us 120., 50.); (us 260., 50.) |])
      ~fault_from:(us 100.) ~fault_until:(us 200.)
  in
  (match v.Check.Slo.v_violations with
  | [ viol ] ->
      Alcotest.(check string) "rule" "phase-empty" viol.Check.Violation.rule
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  Alcotest.check_raises "window validation"
    (Invalid_argument "Slo.evaluate: empty or negative fault window")
    (fun () ->
      ignore
        (Check.Slo.evaluate c
           ~slo:(mk_slo [||])
           ~fault_from:(us 200.) ~fault_until:(us 100.)))

let test_slo_contract_run () =
  let v, slo = Check.Slo.run_contract ~quick:true () in
  check_int "no stranded requests" 0 slo.Cluster.Workload.slo_stranded;
  check_bool "healthy phase populated" true (v.Check.Slo.v_healthy > 0);
  check_bool "degraded phase populated" true (v.Check.Slo.v_degraded > 0);
  check_bool "recovered phase populated" true (v.Check.Slo.v_recovered > 0);
  List.iter
    (fun viol ->
      Printf.printf "unexpected violation: %s\n"
        (Check.Violation.to_string viol))
    v.Check.Slo.v_violations;
  check_bool "default contract holds on the canonical run" true
    (Check.Slo.ok v)

(* The panel half of the `slo' registry contract over hand-built rows: a
   clean panel passes; a stranded CLIC request, a fail-slow window that
   leaves no mark on the tail, and the verdict's own findings are each
   flagged; TCP rows are reported, not judged. *)
let test_slo_panel_contract () =
  let row ?(system = `Clic) condition p999 =
    {
      Report.Figures.sl_system = system;
      sl_condition = condition;
      sl_requests = 100;
      sl_completed = 100;
      sl_stranded = 0;
      sl_timeouts = 0;
      sl_p50_us = 50.;
      sl_p99_us = p999;
      sl_p999_us = p999;
      sl_goodput_mbps = 1.;
    }
  in
  let verdict =
    {
      Check.Slo.v_contract = Check.Slo.default;
      v_healthy = 1;
      v_degraded = 1;
      v_recovered = 1;
      v_healthy_p999_us = 100.;
      v_degraded_p999_us = 900.;
      v_recovered_p999_us = 100.;
      v_violations = [];
    }
  in
  let healthy = row `Healthy 100. and slow = row `Fail_slow 900. in
  let rules ?(verdict = verdict) rows =
    List.map
      (fun v -> v.Check.Violation.rule)
      (Check.Scenario.slo_contract rows verdict)
  in
  let check_rules = Alcotest.(check (list string)) in
  check_rules "clean panel" [] (rules [ healthy; slow ]);
  check_rules "one stranded clic/healthy request"
    [ "unanswered"; "stranded" ]
    (rules
       [ { healthy with Report.Figures.sl_completed = 99; sl_stranded = 1 };
         slow ]);
  check_rules "tcp rows are not judged" []
    (rules
       [ healthy; slow;
         { (row ~system:`Tcp `Healthy 100.) with
           Report.Figures.sl_completed = 10; sl_stranded = 90 } ]);
  check_rules "fail-slow left no mark" [ "no-bleed" ]
    (rules [ healthy; row `Fail_slow 100. ]);
  check_rules "missing fail-slow row" [ "missing-row" ] (rules [ healthy ]);
  let idle =
    Check.Violation.make ~pass:"slo" ~rule:"mechanism-idle" ~time_ns:0 "x"
  in
  check_rules "verdict findings carried" [ "mechanism-idle" ]
    (rules
       ~verdict:{ verdict with Check.Slo.v_violations = [ idle ] }
       [ healthy; slow ])

(* ------------------------------------------------------------------ *)
(* Satellite: the clic-lint static analyzer *)

module Lint = Lint_core.Lint_project
module Ldiag = Lint_core.Lint_diag

let fixture name = Filename.concat "lint_fixtures" name

(* Every bad_*.ml fixture must trigger — and trigger ONLY — its own
   rule; a fixture without an expected rule here fails. *)
let test_lint_bad_fixtures () =
  let rule_of = function
    | "bad_sleep_in_isr.ml" | "bad_wait_in_bh.ml" -> "R1"
    | "bad_unguarded_magic.ml" | "bad_waiver_no_reason.ml" -> "R2"
    | "bad_hot_alloc.ml" -> "R3"
    | "bad_unguarded_probe.ml" -> "R4"
    | file -> Alcotest.failf "%s: no expected rule" file
  in
  let expect file =
    let rule = rule_of file in
    let r = Lint.run_files [ fixture file ] in
    match r.Lint.r_findings with
    | [] -> Alcotest.failf "%s: expected %s findings, got none" file rule
    | findings ->
        List.iter
          (fun (d : Ldiag.t) ->
            Alcotest.(check string)
              (file ^ " triggers exactly its rule")
              rule
              (Ldiag.rule_id d.Ldiag.d_rule))
          findings
  in
  let bad =
    List.filter
      (fun f ->
        String.starts_with ~prefix:"bad_" f && Filename.check_suffix f ".ml")
      (List.sort compare (Array.to_list (Sys.readdir "lint_fixtures")))
  in
  check_bool "bad fixtures found" true (bad <> []);
  List.iter expect bad

let test_lint_good_fixture () =
  let r = Lint.run_files [ fixture "good_clean.ml" ] in
  check_int "no findings" 0 (List.length r.Lint.r_findings);
  check_int "one waiver collected" 1 (List.length r.Lint.r_waivers);
  List.iter
    (fun (w : Ldiag.waiver) ->
      check_bool "waiver carries a reason" true (w.Ldiag.w_reason <> None))
    r.Lint.r_waivers

let test_lint_rule_filter () =
  let r = Lint.run_files [ fixture "bad_hot_alloc.ml" ] in
  let only rules =
    (Lint.filter_rules (Some rules) r).Lint.r_findings |> List.length
  in
  check_int "R3 filter keeps the findings" (List.length r.Lint.r_findings)
    (only [ Ldiag.R3 ]);
  check_int "R1 filter drops them" 0 (only [ Ldiag.R1 ])

(* Whole-repo clean run: the test binary runs from the build context,
   which mirrors the source tree, so ../lib is exactly the library code
   this binary was compiled from. *)
let test_lint_repo_clean () =
  let r = Lint.run_all ~root:".." in
  List.iter
    (fun (d : Ldiag.t) ->
      Printf.printf "unexpected finding: %s\n" (Ldiag.to_string d))
    r.Lint.r_findings;
  check_int "repository lints clean" 0 (List.length r.Lint.r_findings);
  check_bool "scanned a realistic file count" true (r.Lint.r_files > 60);
  check_bool "the repo carries reasoned waivers" true
    (r.Lint.r_waivers <> []);
  List.iter
    (fun (w : Ldiag.waiver) ->
      check_bool
        ("waiver has a reason: " ^ Ldiag.waiver_to_string w)
        true
        (w.Ldiag.w_reason <> None))
    r.Lint.r_waivers

let test_lint_mli_coverage () =
  let root = Filename.temp_file "clic_lint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let ml = Filename.concat (Filename.concat root "lib") "naked.ml" in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write ml "let x = 1\n";
  (match Lint.mli_coverage ~root with
  | [ d ] -> Alcotest.(check string) "rule" "R5" (Ldiag.rule_id d.Ldiag.d_rule)
  | l -> Alcotest.failf "expected exactly one R5 finding, got %d"
           (List.length l));
  write (ml ^ "i") "val x : int\n";
  check_int "clean once the interface exists" 0
    (List.length (Lint.mli_coverage ~root))

let test_lint_export_readers () =
  let root = Filename.temp_file "clic_lint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let write rel text =
    let path = Filename.concat root rel in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then begin
      if not (Sys.file_exists (Filename.dirname dir)) then
        Sys.mkdir (Filename.dirname dir) 0o755;
      Sys.mkdir dir 0o755
    end;
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write "lib/w/widget.mli"
    "val outside : int\n\
     val inside : int -> int\n\
     val dead : int\n\
     val opened : int\n\
     val aliased : int\n\
     module Sub : sig\n\
    \  val deep : int\n\
     end\n";
  write "lib/w/widget.ml"
    "let inside x = x + 1\n\
     let outside = inside 0\n\
     let dead = 2\n\
     let opened = 3\n\
     let aliased = 4\n\
     module Sub = struct let deep = 5 end\n";
  (* an R5 finding too, so the rule filter has something to drop *)
  write "lib/w/naked.ml" "let x = 1\n";
  let flagged () =
    Lint.export_readers ~root
    |> List.map (fun (d : Ldiag.t) ->
           Alcotest.(check string) "rule" "R6" (Ldiag.rule_id d.Ldiag.d_rule);
           List.find
             (fun v -> contains d.Ldiag.d_msg ("`Widget." ^ v ^ "`"))
             [ "outside"; "inside"; "dead"; "opened"; "aliased"; "Sub.deep" ])
  in
  Alcotest.(check (list string)) "no reader: every export flagged"
    [ "outside"; "inside"; "dead"; "opened"; "aliased"; "Sub.deep" ]
    (flagged ());
  write "test/t.ml" "let _ = W.Widget.outside\n";
  write "examples/e.ml" "let _ = Widget.Sub.deep\n";
  write "benchsuite/b.ml" "open W.Widget\nlet _ = opened\n";
  write "tools/a.ml" "module F = W.Widget\nlet _ = F.aliased\n";
  Alcotest.(check (list string))
    "readers in test/examples/benchsuite/tools clear their exports; a \
     value read only inside its module stays flagged"
    [ "inside"; "dead" ] (flagged ());
  let only rules =
    (Lint.filter_rules (Some rules) (Lint.run_all ~root)).Lint.r_findings
    |> List.map (fun (d : Ldiag.t) -> Ldiag.rule_id d.Ldiag.d_rule)
  in
  Alcotest.(check (list string)) "--rule R6 narrows to R6" [ "R6"; "R6" ]
    (only [ Ldiag.R6 ]);
  Alcotest.(check (list string)) "--rule R5 drops R6" [ "R5" ]
    (only [ Ldiag.R5 ])

let suite =
  [
    Alcotest.test_case "sim: seeded tie-break permutes same-instant events"
      `Quick test_sim_tie_break;
    Alcotest.test_case "lifecycle: double free" `Quick
      test_lifecycle_double_free;
    Alcotest.test_case "lifecycle: use after free" `Quick
      test_lifecycle_use_after_free;
    Alcotest.test_case "lifecycle: leak at sim end" `Quick test_lifecycle_leak;
    Alcotest.test_case "lifecycle: pool bytes outstanding" `Quick
      test_lifecycle_pool_leak;
    Alcotest.test_case "lifecycle: balanced run is clean" `Quick
      test_lifecycle_clean;
    Alcotest.test_case "lifecycle: peak live-object tally" `Quick
      test_lifecycle_peak_tally;
    Alcotest.test_case "lifecycle: real skbuff double free" `Quick
      test_skbuff_double_free_probed;
    Alcotest.test_case "lifecycle: backtrace text and per-kind identities"
      `Quick test_lifecycle_backtrace_text;
    Alcotest.test_case "invariants: duplicate/gap delivery" `Quick
      test_invariant_duplicate_delivery;
    Alcotest.test_case "invariants: duplicate app message" `Quick
      test_invariant_msg_once;
    Alcotest.test_case "invariants: ack monotonicity" `Quick
      test_invariant_ack_monotone;
    Alcotest.test_case "invariants: window bound" `Quick
      test_invariant_window_bound;
    Alcotest.test_case "invariants: poll budget" `Quick
      test_invariant_poll_budget;
    Alcotest.test_case "invariants: epoch-monotone delivery" `Quick
      test_invariant_epoch_monotone;
    Alcotest.test_case "invariants: pool balance" `Quick
      test_invariant_pool_balance;
    Alcotest.test_case "invariants: no retransmission of SACKed segments"
      `Quick test_invariant_sack_no_spurious_retx;
    Alcotest.test_case "invariants: clock monotone" `Quick
      test_invariant_clock_monotone;
    Alcotest.test_case "invariants: snd_una monotone" `Quick
      test_invariant_snd_una_monotone;
    Alcotest.test_case "invariants: RTO bounds" `Quick
      test_invariant_rto_bounds;
    Alcotest.test_case "invariants: ivar single fill" `Quick
      test_invariant_ivar_single_fill;
    Alcotest.test_case "invariants: semaphore balance" `Quick
      test_invariant_sem_balance;
    Alcotest.test_case "invariants: no transmit while paused" `Quick
      test_invariant_no_tx_while_paused;
    Alcotest.test_case "invariants: switch buffer ledger" `Quick
      test_invariant_switch_buffer_ledger;
    Alcotest.test_case "invariants: zero loss when protected" `Quick
      test_invariant_zero_loss_when_protected;
    Alcotest.test_case "invariants: ECN mark above threshold" `Quick
      test_invariant_ecn_mark_above_threshold;
    Alcotest.test_case "invariants: every monitor fires through the sink"
      `Quick test_invariant_every_monitor_fires;
    Alcotest.test_case "probe: kind index is dense" `Quick
      test_probe_kind_index;
    QCheck_alcotest.to_alcotest prop_routing_matches_broadcast;
    Alcotest.test_case "determinism: logical trace hash" `Quick
      test_determinism_hash;
    Alcotest.test_case "check: catches a seeded ordering race" `Quick
      test_check_catches_race;
    Alcotest.test_case "check: clean synthetic scenario" `Quick
      test_check_clean_synthetic;
    Alcotest.test_case "check: crash finding names its raise site" `Quick
      test_check_crash_names_raise_site;
    Alcotest.test_case "check: real CLIC ping-pong end to end" `Quick
      test_check_real_scenario_clean;
    Alcotest.test_case "check: ext4 runs to the end, leak-checked" `Quick
      test_check_ext4_clean;
    Alcotest.test_case "soak: argument checks" `Quick test_soak_argument_checks;
    Alcotest.test_case "soak: one-seed smoke run" `Quick test_soak_smoke;
    Alcotest.test_case "soak: zeroed counter brings back its complaint"
      `Quick test_soak_missing_evidence;
    Alcotest.test_case "soak: incast-storm focused" `Quick
      test_soak_incast_storm_focused;
    Alcotest.test_case "soak: fabric-cut focused" `Quick
      test_soak_fabric_cut_focused;
    Alcotest.test_case "soak: short rotation waives evidence" `Quick
      test_soak_short_rotation;
    Alcotest.test_case "soak: fabric-cut crash mid backlog drain" `Quick
      test_soak_fabric_cut_crash_drain;
    Alcotest.test_case "slo: contract validation" `Quick test_slo_validate;
    Alcotest.test_case "slo: phase classification by arrival" `Quick
      test_slo_evaluate_phases;
    Alcotest.test_case "slo: canonical contract run holds" `Quick
      test_slo_contract_run;
    Alcotest.test_case "slo: panel contract flags doctored rows" `Quick
      test_slo_panel_contract;
    Alcotest.test_case "probe on/off trace equivalence" `Quick
      test_probe_on_off_equivalence;
    Alcotest.test_case "lint: bad fixtures trigger exactly their rule" `Quick
      test_lint_bad_fixtures;
    Alcotest.test_case "lint: clean fixture has zero findings" `Quick
      test_lint_good_fixture;
    Alcotest.test_case "lint: --rule narrows findings" `Quick
      test_lint_rule_filter;
    Alcotest.test_case "lint: whole repository is clean" `Quick
      test_lint_repo_clean;
    Alcotest.test_case "lint: mli coverage (R5)" `Quick
      test_lint_mli_coverage;
    Alcotest.test_case "lint: every export has an outside reader (R6)" `Quick
      test_lint_export_readers;
  ]
