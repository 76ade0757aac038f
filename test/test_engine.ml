(* Unit and property tests for the discrete-event engine. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_constructors () =
  check_int "us" 1_500 (Time.us 1.5);
  check_int "ms" 2_000_000 (Time.ms 2.0);
  check_int "s" 1_000_000_000 (Time.s 1.0);
  check_int "ns" 42 (Time.ns 42)

let test_time_rates () =
  (* 1 Gbit/s = 1 ns per bit: 1500 bytes = 12000 ns *)
  check_int "wire 1500B at 1Gb/s" 12_000
    (Time.of_bits_at_rate ~bits_per_s:1e9 (1500 * 8));
  check_int "zero bytes" 0 (Time.of_bytes_at_rate ~bytes_per_s:1e6 0);
  (* rounding is up: 1 byte at 3 bytes/s -> ceil(1/3 s) *)
  check_int "round up" 333_333_334 (Time.of_bytes_at_rate ~bytes_per_s:3. 1)

let test_time_invalid () =
  Alcotest.check_raises "nan" (Invalid_argument "Time.us: not finite")
    (fun () -> ignore (Time.us Float.nan));
  Alcotest.check_raises "rate<=0"
    (Invalid_argument "Time.of_bytes_at_rate: rate <= 0") (fun () ->
      ignore (Time.of_bytes_at_rate ~bytes_per_s:0. 10))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create ~dummy:0 ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  check_int "len" 7 (Heap.length h);
  Alcotest.(check (list int))
    "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ]
    (Heap.to_sorted_list h);
  (* to_sorted_list must not consume *)
  check_int "len preserved" 7 (Heap.length h);
  check_int "pop min" 1 (Heap.pop_exn h)

let test_heap_empty () =
  let h = Heap.create ~dummy:0 ~cmp:compare in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"heap drains any list sorted"
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~dummy:0 ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~count:200 ~name:"heap pop is min under interleaving"
    QCheck.(list (pair int bool))
    (fun ops ->
      let h = Heap.create ~dummy:0 ~cmp:compare in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (x, pop) ->
          if pop then begin
            let expected =
              match List.sort compare !model with
              | [] -> None
              | m :: _ -> Some m
            in
            let got = Heap.pop h in
            if got <> expected then ok := false;
            (match expected with
            | Some m ->
                (* remove one occurrence *)
                let rec remove = function
                  | [] -> []
                  | y :: ys -> if y = m then ys else y :: remove ys
                in
                model := remove !model
            | None -> ())
          end
          else begin
            Heap.push h x;
            model := x :: !model
          end)
        ops;
      !ok)

(* Regression: popping the element that empties the heap must clear the
   parked pool record, or the heap retains the last item forever. *)
let test_heap_pop_last_releases () =
  let h = Heap.create ~dummy:(ref 0) ~cmp:compare in
  let w = Weak.create 1 in
  (* Scope the only strong reference inside a call that has returned by
     the time the GC runs. *)
  let push_and_pop () =
    let item = ref 0xBEEF in
    Weak.set w 0 (Some item);
    Heap.push h item;
    match Heap.pop h with
    | Some r -> check_int "popped value" 0xBEEF !r
    | None -> Alcotest.fail "pop returned None"
  in
  push_and_pop ();
  Gc.full_major ();
  check_bool "popped last element not retained by the heap" true
    (Weak.get w 0 = None)

let prop_heap_fifo_stable =
  QCheck.Test.make ~count:300
    ~name:"heap FIFO-stable among cmp-equal keys"
    QCheck.(list (int_range 0 7))
    (fun ks ->
      (* cmp sees only the key; the payload records insertion order. *)
      let h = Heap.create ~dummy:(0, 0) ~cmp:(fun (a, _) (b, _) -> compare a b) in
      List.iteri (fun i k -> Heap.push h (k, i)) ks;
      let drained = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some x ->
            drained := x :: !drained;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !drained
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) ks))

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~after:30 (record "c"));
  ignore (Sim.schedule sim ~after:10 (record "a"));
  ignore (Sim.schedule sim ~after:20 (record "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check_int "clock at last event" 30 (Sim.now sim)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~after:100 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~after:5 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.cancel h;
  Sim.run sim;
  check_bool "not fired" false !fired;
  check_bool "cancelled" true (Sim.is_cancelled h)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let finished = ref 0 in
  ignore
    (Sim.schedule sim ~after:1 (fun () ->
         ignore
           (Sim.schedule sim ~after:1 (fun () ->
                finished := Sim.now sim))));
  Sim.run sim;
  check_int "nested time" 2 !finished

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~after:(i * 10) (fun () -> incr count))
  done;
  Sim.run_until sim ~limit:45;
  check_int "only first four" 4 !count;
  check_int "clock advanced to limit" 45 (Sim.now sim);
  Sim.run sim;
  check_int "rest run" 10 !count

(* Satellite regression: [pending] must reflect a cancel immediately (the
   cancelled slot still rides the heap as a lazy deletion) and must not
   double-count a double cancel. *)
let test_sim_pending_counts_cancel () =
  let sim = Sim.create () in
  let h1 = Sim.schedule sim ~after:10 (fun () -> ()) in
  let _h2 = Sim.schedule sim ~after:20 (fun () -> ()) in
  check_int "two pending" 2 (Sim.pending sim);
  Sim.cancel h1;
  check_int "cancel reflected immediately" 1 (Sim.pending sim);
  Sim.cancel h1;
  check_int "double cancel counted once" 1 (Sim.pending sim);
  Sim.run sim;
  check_int "drained" 0 (Sim.pending sim)

let test_sim_post () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.post sim ~after:20 (fun () -> log := "b" :: !log);
  Sim.post sim ~after:10 (fun () -> log := "a" :: !log);
  check_int "posts pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b" ] (List.rev !log);
  check_int "clock" 20 (Sim.now sim);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.post: negative delay") (fun () ->
      Sim.post sim ~after:(-1) (fun () -> ()))

let test_sim_run_n () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.post sim ~after:(i * 10) (fun () -> incr count)
  done;
  check_int "first batch" 3 (Sim.run_n sim 3);
  check_int "three fired" 3 !count;
  check_int "clock at third event" 30 (Sim.now sim);
  check_int "rest" 7 (Sim.run_n sim 100);
  check_int "all fired" 10 !count;
  check_int "empty drain" 0 (Sim.run_n sim 5);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Sim.run_n: negative count") (fun () ->
      ignore (Sim.run_n sim (-1)))

(* Drives schedule/cancel/partial-drain churn through the slot arena and
   checks the observable firing order and [pending] against a
   sorted-list model.  A case runs in three phases:
   - Grow: four of six ops schedule.  About a quarter of the cases run
     100 to 10,000 ops, so about one in six grows the arena past its
     first 256 slots and sifts run deep.
   - Teardown: two of every three live events are cancelled, as a
     closing connection cancels its timers.  Cancelled entries overtake
     live ones on the way, so a grown heap compacts while it is deep.
   - Churn: up to 300 ops of ten arms, four scheduling and three
     cancelling a live event, so the heap compacts several times more
     between [run_n] and [run_until] drains.
   One cancel arm deliberately re-cancels and holds stale handles across
   slot reuse: a handle outliving its slot must never affect the arena's
   new occupant. *)
let prop_sim_arena_model =
  QCheck.Test.make ~count:200
    ~name:"sim slot arena matches sorted-list model"
    QCheck.(
      pair
        (list (pair (int_range 0 50) (int_range 0 5)))
        (list_of_size (Gen.int_range 0 300)
           (pair (int_range 0 50) (int_range 0 9))))
    (fun (grow, churn) ->
      let sim = Sim.create () in
      let fired = ref [] in
      let expect = ref [] in
      let handles = ref [] in
      let model = ref [] in
      (* live (at, seq, id) *)
      let now = ref 0 in
      let next_seq = ref 0 and next_id = ref 0 in
      let ok = ref true in
      let pop_min ~limit =
        match List.sort compare !model with
        | (at, _, id) :: rest when at <= limit ->
            model := rest;
            now := at;
            expect := id :: !expect;
            true
        | _ -> false
      in
      let cancel id =
        Sim.cancel (List.assoc id !handles);
        model := List.filter (fun (_, _, i) -> i <> id) !model
      in
      let step (d, action) =
        if action <= 3 then begin
          let id = !next_id and s = !next_seq in
          incr next_id;
          incr next_seq;
          let h = Sim.schedule sim ~after:d (fun () -> fired := id :: !fired) in
          handles := (id, h) :: !handles;
          model := (!now + d, s, id) :: !model
        end
        else if action <= 6 then begin
          match !model with
          | [] -> ()
          | live ->
              let _, _, id = List.nth live (d mod List.length live) in
              cancel id
        end
        else if action = 7 then begin
          match !handles with
          | [] -> ()
          | hs -> cancel (fst (List.nth hs (d mod List.length hs)))
        end
        else if action = 8 then begin
          let k = d mod 4 in
          let fired_n = Sim.run_n sim k in
          let model_n = ref 0 in
          while !model_n < k && pop_min ~limit:max_int do
            incr model_n
          done;
          if fired_n <> !model_n then ok := false
        end
        else begin
          let limit = !now + d in
          Sim.run_until sim ~limit;
          while pop_min ~limit do () done;
          now := limit;
          if Sim.now sim <> limit then ok := false
        end;
        if Sim.pending sim <> List.length !model then ok := false
      in
      (* The grow phase's cancel and drain codes are the churn phase's
         stale-handle cancel and [run_n] arms. *)
      List.iter (fun (d, a) -> step (d, if a <= 3 then a else a + 3)) grow;
      List.iter
        (fun (_, _, id) -> if id mod 3 <> 0 then cancel id)
        !model;
      if Sim.pending sim <> List.length !model then ok := false;
      List.iter step churn;
      Sim.run sim;
      while pop_min ~limit:max_int do () done;
      !ok && Sim.pending sim = 0 && List.rev !fired = List.rev !expect)

(* The RTO pattern: one live chain that, every 1 us, cancels a 10 ms
   timer and schedules a fresh one.  Each cancelled timer must leave the
   heap instead of waiting there for its old deadline, so the
   simulator's footprint stays bounded by the live events however many
   timers were re-armed. *)
let test_sim_rearm_heap_bounded () =
  let sim = Sim.create () in
  let timer = ref None and timer_fired = ref 0 in
  let rec tick k () =
    Option.iter Sim.cancel !timer;
    timer :=
      Some (Sim.schedule sim ~after:(Time.ms 10.) (fun () -> incr timer_fired));
    if k < 100_000 then Sim.post sim ~after:(Time.us 1.) (tick (k + 1))
  in
  Sim.post sim ~after:0 (tick 1);
  check_int "first half" 50_000 (Sim.run_n sim 50_000);
  check_int "live events" 2 (Sim.pending sim);
  let words = Obj.reachable_words (Obj.repr sim) in
  if words >= 16_384 then
    Alcotest.failf "simulator reaches %d words after 50k re-arms" words;
  Sim.run sim;
  check_int "every tick and the last timer" 100_001 (Sim.events_executed sim);
  check_int "only the last timer fires" 1 !timer_fired

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore
    (Sim.schedule sim ~after:10 (fun () ->
         match Sim.schedule_at sim ~at:5 (fun () -> ()) with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* Process *)

let test_process_delay () =
  let sim = Sim.create () in
  let times = ref [] in
  Process.spawn sim (fun () ->
      Process.delay 10;
      times := Sim.now sim :: !times;
      Process.delay 15;
      times := Sim.now sim :: !times);
  Sim.run sim;
  Alcotest.(check (list int)) "delays accumulate" [ 10; 25 ] (List.rev !times)

let test_process_fork () =
  let sim = Sim.create () in
  let log = ref [] in
  Process.spawn sim (fun () ->
      Process.fork (fun () ->
          Process.delay 5;
          log := ("child", Sim.now sim) :: !log);
      log := ("parent-continues", Sim.now sim) :: !log;
      Process.delay 10;
      log := ("parent-done", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "interleaving"
    [ ("parent-continues", 0); ("child", 5); ("parent-done", 10) ]
    (List.rev !log)

let test_process_await_wake () =
  let sim = Sim.create () in
  let slot = ref None in
  let woke_at = ref (-1) in
  Process.spawn sim (fun () ->
      let v = Process.await (fun resume -> slot := Some resume) in
      woke_at := Sim.now sim + v);
  ignore
    (Sim.schedule sim ~after:42 (fun () ->
         match !slot with Some r -> r 8 | None -> assert false));
  Sim.run sim;
  check_int "woken with value at time" 50 !woke_at

let test_process_double_resume_raises () =
  let sim = Sim.create () in
  let slot = ref None in
  Process.spawn sim (fun () ->
      let () = Process.await (fun resume -> slot := Some resume) in
      ());
  ignore
    (Sim.schedule sim ~after:1 (fun () ->
         let r = Option.get !slot in
         r ();
         match r () with
         | () -> Alcotest.fail "second resume should raise"
         | exception Invalid_argument _ -> ()));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* Ivar / Mailbox / Semaphore *)

let test_ivar_blocks_until_filled () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Process.spawn sim (fun () -> got := Ivar.read iv);
  Process.spawn sim ~delay:7 (fun () -> Ivar.fill iv 99);
  Sim.run sim;
  check_int "value" 99 !got;
  check_bool "filled" true (Ivar.is_filled iv);
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () -> Ivar.fill iv 1)

let test_ivar_read_after_fill () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  Ivar.fill iv "x";
  let got = ref "" in
  Process.spawn sim (fun () -> got := Ivar.read iv);
  Sim.run sim;
  Alcotest.(check string) "instant read" "x" !got

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Process.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Process.spawn sim ~delay:5 (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_queues_when_no_receiver () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  Mailbox.send mb "a";
  check_int "queued" 1 (Mailbox.length mb);
  Alcotest.(check (option string)) "try_recv" (Some "a") (Mailbox.try_recv mb);
  Alcotest.(check (option string)) "empty" None (Mailbox.try_recv mb);
  ignore sim

let test_semaphore_limits_concurrency () =
  let sim = Sim.create () in
  let sem = Semaphore.create 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    Process.spawn sim (fun () ->
        Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Process.delay 10;
        decr active;
        Semaphore.release sem)
  done;
  Sim.run sim;
  check_int "peak concurrency" 2 !peak;
  check_int "all released" 2 (Semaphore.available sem)

let test_semaphore_fifo_no_starvation () =
  let sim = Sim.create () in
  let sem = Semaphore.create 0 in
  let log = ref [] in
  Process.spawn sim (fun () ->
      Semaphore.acquire ~n:3 sem;
      log := "big" :: !log);
  Process.spawn sim (fun () ->
      Semaphore.acquire ~n:1 sem;
      log := "small" :: !log);
  Process.spawn sim ~delay:5 (fun () -> Semaphore.release ~n:4 sem);
  Sim.run sim;
  Alcotest.(check (list string))
    "big request at head served first" [ "big"; "small" ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Resource / Bus *)

let test_resource_serializes () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  let ends = ref [] in
  for i = 1 to 3 do
    Process.spawn sim (fun () ->
        Resource.use r 10;
        ends := (i, Sim.now sim) :: !ends)
  done;
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "fcfs service" [ (1, 10); (2, 20); (3, 30) ] (List.rev !ends);
  check_int "busy time" 30 (Resource.busy_time r);
  check_int "grants" 3 (Resource.grants r)

let test_resource_priority () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  let log = ref [] in
  Process.spawn sim (fun () ->
      Resource.use r 10;
      log := "holder" :: !log);
  (* Both queue while the holder runs; high must win despite arriving last. *)
  Process.spawn sim ~delay:1 (fun () ->
      Resource.use ~priority:`Low r 5;
      log := "low" :: !log);
  Process.spawn sim ~delay:2 (fun () ->
      Resource.use ~priority:`High r 5;
      log := "high" :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "high priority wins" [ "holder"; "high"; "low" ] (List.rev !log)

let test_resource_utilization () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  Process.spawn sim (fun () -> Resource.use r 25);
  ignore (Sim.schedule sim ~after:100 (fun () -> ()));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "25% busy" 0.25 (Resource.utilization r ~since:0)

let test_bus_transfer_time () =
  let sim = Sim.create () in
  let bus =
    Bus.create sim ~name:"pci" ~bytes_per_s:132e6 ~efficiency:0.5
      ~setup:(Time.ns 1000) ()
  in
  (* 66 MB/s effective: 6600 bytes -> 100us + 1us setup *)
  check_int "time" (Time.us 101.) (Bus.transfer_time bus 6600);
  let done_at = ref 0 in
  Process.spawn sim (fun () ->
      Bus.transfer bus 6600;
      done_at := Sim.now sim);
  Sim.run sim;
  check_int "blocking transfer" (Time.us 101.) !done_at;
  check_int "accounting" 6600 (Bus.bytes_moved bus)

let test_bus_contention () =
  let sim = Sim.create () in
  let bus = Bus.create sim ~name:"mem" ~bytes_per_s:1e9 () in
  let ends = ref [] in
  for _ = 1 to 2 do
    Process.spawn sim (fun () ->
        Bus.transfer bus 1_000_000;
        ends := Sim.now sim :: !ends)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "serialized transfers" [ Time.ms 1.; Time.ms 2. ]
    (List.sort compare !ends)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let child = Rng.split a in
  (* The child stream must differ from the parent's continued stream. *)
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 child) in
  check_bool "distinct" true (xs <> ys)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"Rng.int within bounds"
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_exponential_positive =
  QCheck.Test.make ~count:200 ~name:"Rng.exponential positive"
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, mean) ->
      let r = Rng.create ~seed in
      Rng.exponential r ~mean >= 0.)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "sd" 1.2909944487 (Stats.Summary.stddev s)

let test_histogram_percentile () =
  let h = Stats.Histogram.create "h" in
  for v = 1 to 100 do
    Stats.Histogram.add h v
  done;
  check_int "count" 100 (Stats.Histogram.count h);
  (* p50 of 1..100 lies in the bucket with upper bound 64 *)
  check_int "p50 bucket" 64 (Stats.Histogram.percentile h 50.);
  check_int "p100 bucket" 128 (Stats.Histogram.percentile h 100.)

let test_series () =
  let s = Stats.Series.create ~name:"bw" in
  Stats.Series.add s ~x:1. ~y:10.;
  Stats.Series.add s ~x:3. ~y:30.;
  Alcotest.(check (option (float 1e-9))) "exact" (Some 10.)
    (Stats.Series.y_at s ~x:1.);
  Alcotest.(check (option (float 1e-9))) "interp" (Some 20.)
    (Stats.Series.interpolate s ~x:2.);
  Alcotest.(check (float 1e-9)) "max" 30. (Stats.Series.max_y s);
  (* y_at tolerates float-arithmetic noise in x but not a different point *)
  Stats.Series.add s ~x:0.3 ~y:99.;
  Alcotest.(check (option (float 1e-9))) "fp-noise x still matches" (Some 99.)
    (Stats.Series.y_at s ~x:(0.1 +. 0.2));
  Alcotest.(check (option (float 1e-9))) "nearby x misses" None
    (Stats.Series.y_at s ~x:0.300001)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_spans () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Process.spawn sim (fun () ->
      Trace.run tr "stage-a" (fun () -> Process.delay 10);
      Trace.run tr "stage-b" (fun () -> Process.delay 5);
      Trace.run tr "stage-a" (fun () -> Process.delay 3));
  Sim.run sim;
  Alcotest.(check (option int)) "a total" (Some 13)
    (Trace.duration tr "stage-a");
  Alcotest.(check (option int)) "b total" (Some 5) (Trace.duration tr "stage-b");
  Alcotest.(check (option int)) "missing" None (Trace.duration tr "nope");
  check_int "span count" 3 (List.length (Trace.spans tr))

let test_trace_disabled () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.set_enabled tr false;
  Trace.mark tr "x";
  check_int "nothing recorded" 0 (List.length (Trace.spans tr))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units () =
  Alcotest.(check (float 1e-6)) "1 Gbit/s in B/s" 125e6 (Units.gbit_per_s 1.);
  Alcotest.(check (float 1e-6)) "round trip" 600.
    (Units.to_mbit_per_s ~bytes_per_s:(Units.mbit_per_s 600.));
  Alcotest.(check (float 1e-6)) "measured bw" 800.
    (Units.bandwidth_mbps ~bytes:100_000 ~span:(Time.ms 1.));
  check_int "kib" 4096 (Units.kib 4)

let test_process_nested_forks () =
  let sim = Sim.create () in
  let count = ref 0 in
  Process.spawn sim (fun () ->
      Process.fork (fun () ->
          Process.fork (fun () ->
              Process.delay 5;
              incr count);
          incr count);
      incr count);
  Sim.run sim;
  check_int "all three ran" 3 !count

let test_resource_use_f_releases_on_exception () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"x" in
  let second_ran = ref false in
  Process.spawn sim (fun () ->
      match Resource.use_f r (fun () -> failwith "boom") with
      | () -> ()
      | exception Failure _ -> ());
  Process.spawn sim ~delay:1 (fun () ->
      Resource.use r 5;
      second_ran := true);
  Sim.run sim;
  check_bool "resource released after raise" true !second_ran;
  check_bool "not busy" false (Resource.is_busy r)

let test_semaphore_try_acquire_respects_queue () =
  let sim = Sim.create () in
  let sem = Semaphore.create 1 in
  let blocked_got_it = ref false in
  Process.spawn sim (fun () ->
      Semaphore.acquire ~n:1 sem;
      Process.delay 10;
      Semaphore.release sem);
  Process.spawn sim ~delay:1 (fun () ->
      Semaphore.acquire sem;
      blocked_got_it := true;
      Semaphore.release sem);
  Process.spawn sim ~delay:2 (fun () ->
      (* must NOT jump the queue in front of the blocked waiter *)
      check_bool "try_acquire refuses while waiters exist" false
        (Semaphore.try_acquire sem));
  Sim.run sim;
  check_bool "fifo waiter served" true !blocked_got_it

let test_trace_records_on_exception () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Process.spawn sim (fun () ->
      match Trace.run tr "failing" (fun () -> failwith "x") with
      | () -> ()
      | exception Failure _ -> ());
  Sim.run sim;
  check_int "span recorded despite raise" 1 (List.length (Trace.spans tr))

let test_histogram_empty () =
  let h = Stats.Histogram.create "empty" in
  check_int "p99 of empty" 0 (Stats.Histogram.percentile h 99.)

let test_mailbox_competing_receivers_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let order = ref [] in
  for i = 1 to 2 do
    Process.spawn sim (fun () ->
        let v = Mailbox.recv mb in
        order := (i, v) :: !order)
  done;
  Process.spawn sim ~delay:5 (fun () ->
      check_int "two waiters" 2 (Mailbox.waiters mb);
      Mailbox.send mb "a";
      Mailbox.send mb "b");
  Sim.run sim;
  Alcotest.(check (list (pair int string)))
    "receivers served in arrival order"
    [ (1, "a"); (2, "b") ]
    (List.rev !order)

let prop_rng_pareto_support =
  QCheck.Test.make ~count:200 ~name:"Rng.pareto never below scale"
    QCheck.(triple small_int (float_range 1.1 5.) (float_range 1. 1000.))
    (fun (seed, shape, scale) ->
      let r = Rng.create ~seed in
      Rng.pareto r ~shape ~scale >= scale)

let prop_arrival_streams_seed_deterministic =
  (* a mixed Poisson/Pareto draw stream is a pure function of the seed:
     equal seeds replay byte-identically, different seeds diverge *)
  QCheck.Test.make ~count:100 ~name:"arrival streams keyed by seed"
    QCheck.(small_int)
    (fun seed ->
      let draw r =
        List.init 64 (fun i ->
            if i mod 2 = 0 then Rng.exponential r ~mean:25_000.
            else Rng.pareto r ~shape:2.5 ~scale:4_000.)
      in
      let a = draw (Rng.create ~seed) in
      let b = draw (Rng.create ~seed) in
      let c = draw (Rng.create ~seed:(seed + 1)) in
      a = b && a <> c)

let test_rng_means_hit_analytic () =
  (* 20k draws each; generous tolerances keep this deterministic-seed
     test far from flakiness while still catching a broken transform *)
  let r = Rng.create ~seed:42 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean near 100" true (mean > 95. && mean < 105.);
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.pareto r ~shape:2.5 ~scale:10.
  done;
  (* analytic mean: shape*scale/(shape-1) = 16.667 *)
  let mean = !sum /. float_of_int n in
  check_bool "pareto mean near 16.7" true (mean > 15.5 && mean < 18.)

let test_rng_pareto_validation () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "shape zero" (Invalid_argument "Rng.pareto: shape <= 0")
    (fun () -> ignore (Rng.pareto r ~shape:0. ~scale:1.));
  Alcotest.check_raises "scale zero" (Invalid_argument "Rng.pareto: scale <= 0")
    (fun () -> ignore (Rng.pareto r ~shape:2. ~scale:0.))

let prop_semaphore_never_negative =
  QCheck.Test.make ~count:100 ~name:"semaphore conserves permits"
    QCheck.(pair (int_range 1 5) (list (int_range 1 3)))
    (fun (permits, needs) ->
      let sim = Sim.create () in
      let sem = Semaphore.create permits in
      List.iter
        (fun n ->
          let n = min n permits in
          Process.spawn sim (fun () ->
              Semaphore.acquire ~n sem;
              Process.delay 1;
              Semaphore.release ~n sem))
        needs;
      Sim.run sim;
      Semaphore.available sem = permits)

let qprops = List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorts; prop_heap_interleaved; prop_heap_fifo_stable;
      prop_sim_arena_model; prop_rng_int_in_bounds;
      prop_rng_exponential_positive; prop_rng_pareto_support;
      prop_arrival_streams_seed_deterministic;
      prop_semaphore_never_negative ]

let suite =
  [
    ("time constructors", `Quick, test_time_constructors);
    ("time rates", `Quick, test_time_rates);
    ("time invalid args", `Quick, test_time_invalid);
    ("heap ordering", `Quick, test_heap_order);
    ("heap empty", `Quick, test_heap_empty);
    ("heap pop releases last element", `Quick, test_heap_pop_last_releases);
    ("sim event ordering", `Quick, test_sim_ordering);
    ("sim same-instant fifo", `Quick, test_sim_fifo_same_instant);
    ("sim cancel", `Quick, test_sim_cancel);
    ("sim nested schedule", `Quick, test_sim_nested_schedule);
    ("sim run_until", `Quick, test_sim_run_until);
    ("sim pending tracks cancel", `Quick, test_sim_pending_counts_cancel);
    ("sim post", `Quick, test_sim_post);
    ("sim run_n", `Quick, test_sim_run_n);
    ("sim schedule in past", `Quick, test_sim_past_raises);
    ("sim re-armed timers keep the heap bounded", `Quick,
     test_sim_rearm_heap_bounded);
    ("process delay", `Quick, test_process_delay);
    ("process fork", `Quick, test_process_fork);
    ("process await/wake", `Quick, test_process_await_wake);
    ("process double resume", `Quick, test_process_double_resume_raises);
    ("ivar blocking", `Quick, test_ivar_blocks_until_filled);
    ("ivar instant read", `Quick, test_ivar_read_after_fill);
    ("mailbox fifo", `Quick, test_mailbox_fifo);
    ("mailbox queue", `Quick, test_mailbox_queues_when_no_receiver);
    ("semaphore concurrency", `Quick, test_semaphore_limits_concurrency);
    ("semaphore fifo", `Quick, test_semaphore_fifo_no_starvation);
    ("resource serializes", `Quick, test_resource_serializes);
    ("resource priority", `Quick, test_resource_priority);
    ("resource utilization", `Quick, test_resource_utilization);
    ("bus transfer time", `Quick, test_bus_transfer_time);
    ("bus contention", `Quick, test_bus_contention);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng analytic means", `Quick, test_rng_means_hit_analytic);
    ("rng pareto validation", `Quick, test_rng_pareto_validation);
    ("stats summary", `Quick, test_summary);
    ("stats histogram", `Quick, test_histogram_percentile);
    ("stats series", `Quick, test_series);
    ("trace spans", `Quick, test_trace_spans);
    ("trace disabled", `Quick, test_trace_disabled);
    ("units", `Quick, test_units);
    ("process nested forks", `Quick, test_process_nested_forks);
    ("resource exception safety", `Quick, test_resource_use_f_releases_on_exception);
    ("semaphore no queue-jump", `Quick, test_semaphore_try_acquire_respects_queue);
    ("trace on exception", `Quick, test_trace_records_on_exception);
    ("histogram empty", `Quick, test_histogram_empty);
    ("mailbox receiver order", `Quick, test_mailbox_competing_receivers_fifo);
  ]
  @ List.map (fun (n, s, f) -> (n, s, f)) qprops
