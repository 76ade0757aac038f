(* Events/sec microbenchmarks for the simulation engine hot path.

   Four families, sized so a full run finishes in seconds:

   - empty-dispatch: one self-rescheduling chain of no-op events; measures
     the bare schedule+pop+dispatch cycle with a near-empty heap.
   - churn: schedule waves of far-future events, cancel half of them, then
     drain; measures push/cancel throughput with a deep heap.  Cancelling
     exactly half never leaves more cancelled entries than live ones, so
     the heap never compacts: the cancelled entries are skipped as they
     reach the root.
   - rearm: one live chain that cancels and re-arms a far-future timer at
     every step, the RTO pattern; measures dispatch plus cancel and heap
     compaction.
   - mesh-N: N nodes ping-pong with their partner concurrently, so the
     heap holds ~N outstanding events at all times; measures the whole
     loop at the heap depths the thousand-node scenarios produce.

   Every benchmark returns the number of events the simulator executed;
   the driver divides by min-of-3 wall clock for events/sec. *)

open Engine

(* The no-handle scheduling entry point the engine's own hot paths use. *)
let post sim ~after f = Sim.post sim ~after f

let empty_dispatch ~events () =
  let sim = Sim.create () in
  let remaining = ref events in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      post sim ~after:10 tick
    end
  in
  post sim ~after:10 tick;
  Sim.run sim;
  Sim.events_executed sim

(* Waves of handle-returning schedules with half the handles cancelled
   before the drain: the cancelled slots ride through the heap until
   they reach the root.  Returns schedules + cancels as the op count. *)
let churn ~ops () =
  let sim = Sim.create () in
  let wave = 1024 in
  let handles = Array.make wave None in
  let ops_done = ref 0 in
  while !ops_done < ops do
    for i = 0 to wave - 1 do
      handles.(i) <- Some (Sim.schedule sim ~after:(1 + ((i * 37) mod 4096)) (fun () -> ()))
    done;
    for i = 0 to wave - 1 do
      if i land 1 = 0 then
        match handles.(i) with Some h -> Sim.cancel h | None -> ()
    done;
    ops_done := !ops_done + wave + (wave / 2);
    Sim.run sim
  done;
  !ops_done

(* A 1 us chain whose every step cancels the pending 10 ms timer and
   schedules a fresh one: without compaction the heap would hold 10,000
   dead timers. *)
let rearm ~events () =
  let sim = Sim.create () in
  let timer = ref None in
  let rec tick k () =
    Option.iter Sim.cancel !timer;
    timer := Some (Sim.schedule sim ~after:(Time.ms 10.) ignore);
    if k < events then post sim ~after:(Time.us 1.) (tick (k + 1))
  in
  post sim ~after:0 (tick 1);
  Sim.run sim;
  Sim.events_executed sim

let mesh ~nodes ~rounds () =
  if nodes land 1 <> 0 then invalid_arg "mesh: nodes must be even";
  let sim = Sim.create () in
  let remaining = Array.make nodes rounds in
  (* Per-node latencies are deliberately unequal so the heap sees a spread
     of deadlines rather than one synchronized instant. *)
  let rec send i j =
    post sim ~after:(1_000 + (17 * i mod 64)) (fun () -> recv j i)
  and recv j i =
    if remaining.(j) > 0 then begin
      remaining.(j) <- remaining.(j) - 1;
      send j i
    end
  in
  for i = 0 to nodes - 1 do
    send i (i lxor 1)
  done;
  Sim.run sim;
  Sim.events_executed sim

type result = {
  bench_id : string;
  events : int;
  wall_s : float;  (* min over runs *)
  nodes : int;
}

let events_per_sec r =
  if r.wall_s <= 0. then 0. else float_of_int r.events /. r.wall_s

let time_min ~runs f =
  let best = ref infinity and events = ref 0 in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    let n = f () in
    let w = Unix.gettimeofday () -. t0 in
    events := n;
    if w < !best then best := w
  done;
  (!events, !best)

let mesh_sizes = [ 8; 64; 256; 1024 ]

let suite ~quick =
  let scale n q = if quick then q else n in
  [
    ("engine/empty-dispatch", 0, empty_dispatch ~events:(scale 2_000_000 100_000));
    ("engine/churn", 0, churn ~ops:(scale 1_500_000 100_000));
    ("engine/rearm", 0, rearm ~events:(scale 2_000_000 100_000));
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "engine/mesh-%d" n,
          n,
          mesh ~nodes:n ~rounds:(scale (2_000_000 / n) (100_000 / n)) ))
      mesh_sizes

let run ?(runs = 3) ~quick () =
  List.map
    (fun (bench_id, nodes, f) ->
      let events, wall_s = time_min ~runs f in
      { bench_id; events; wall_s; nodes })
    (suite ~quick)
