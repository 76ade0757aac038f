(* Captures the full probe stream of one scenario run.

   The recorder is a plain [Probe] sink: every event is stamped with the
   simulation time current at emission (tracked from the engine's [Clock]
   events) and appended to two growable flat arrays, one of stamps and one
   of events.  The exporters in this library ([Timeline], [Metrics],
   [Attribution]) read the stream through [iter], so one run can feed all
   of them and none of them copies it. *)

open Engine

type stamped = { at : int; ev : Probe.event }

type t = {
  mutable now : int;
  mutable base : int;  (* epoch offset of the current simulator *)
  mutable ats : int array;
  mutable evs : Probe.event array;  (* [count] events, then spare room *)
  mutable count : int;
  mutable horizon : int;  (* largest time seen, including span finishes *)
  chans : (int, int) Hashtbl.t;  (* channel uid -> dense recording-local id *)
}

let create () =
  {
    now = 0;
    base = 0;
    ats = Array.make 1024 0;
    evs = Array.make 1024 Probe.Sim_start;
    count = 0;
    horizon = 0;
    chans = Hashtbl.create 16;
  }

(* Channel uids are process-global ([Clic.Channel] numbers every channel
   ever created, across simulators and rival stacks), so the raw uid of
   a given scenario depends on what ran before it in the same process.
   Re-number by first appearance to keep exports byte-identical. *)
let dense_chan t uid =
  match Hashtbl.find_opt t.chans uid with
  | Some d -> d
  | None ->
      let d = Hashtbl.length t.chans in
      Hashtbl.add t.chans uid d;
      d

(* Gap between consecutive simulators of one scenario on the stitched
   time axis (bandwidth sweeps create a fresh [Sim] per point; without
   re-basing their busy intervals would overlay and utilization would
   read > 1). *)
let epoch_gap = 1_000

let append t at ev =
  let cap = Array.length t.evs in
  if t.count = cap then begin
    let ats = Array.make (2 * cap) 0
    and evs = Array.make (2 * cap) Probe.Sim_start in
    Array.blit t.ats 0 ats 0 cap;
    Array.blit t.evs 0 evs 0 cap;
    t.ats <- ats;
    t.evs <- evs
  end;
  t.ats.(t.count) <- at;
  t.evs.(t.count) <- ev;
  t.count <- t.count + 1

let on_event t ev =
  (match ev with
  | Probe.Clock { now } -> t.now <- t.base + now
  | Probe.Sim_start ->
      t.base <- (if t.count = 0 then 0 else t.horizon + epoch_gap);
      t.now <- t.base
  | _ -> ());
  (* Spans carry absolute times of their own simulator: re-base them onto
     the stitched axis along with the stamp. *)
  let ev =
    match ev with
    | Probe.Span { host; track; stage; start; finish } ->
        Probe.Span
          {
            host;
            track;
            stage;
            start = t.base + start;
            finish = t.base + finish;
          }
    | Probe.Ack_tx e -> Probe.Ack_tx { e with chan = dense_chan t e.chan }
    | Probe.Ack_rx e -> Probe.Ack_rx { e with chan = dense_chan t e.chan }
    | Probe.Snd_una e -> Probe.Snd_una { e with chan = dense_chan t e.chan }
    | Probe.Window e -> Probe.Window { e with chan = dense_chan t e.chan }
    | Probe.Chan_deliver e ->
        Probe.Chan_deliver { e with chan = dense_chan t e.chan }
    | Probe.Chan_dead e -> Probe.Chan_dead { e with chan = dense_chan t e.chan }
    | Probe.Rto_armed e -> Probe.Rto_armed { e with chan = dense_chan t e.chan }
    | Probe.Sack_tx e -> Probe.Sack_tx { e with chan = dense_chan t e.chan }
    | Probe.Sack_rx e -> Probe.Sack_rx { e with chan = dense_chan t e.chan }
    | Probe.Chan_retx e -> Probe.Chan_retx { e with chan = dense_chan t e.chan }
    | ev -> ev
  in
  (match ev with
  | Probe.Span { finish; _ } -> t.horizon <- max t.horizon finish
  | _ -> t.horizon <- max t.horizon t.now);
  append t t.now ev

let iter t f =
  for i = 0 to t.count - 1 do
    f t.ats.(i) t.evs.(i)
  done

let events t = List.init t.count (fun i -> { at = t.ats.(i); ev = t.evs.(i) })

let count t = t.count
let horizon t = t.horizon

(* Run a scenario with the recorder installed; returns the recording and
   the scenario's rendered text.  Probe state is process-global, so the
   previous sink (if any) is simply replaced and removed afterwards —
   exactly the discipline [Check] uses. *)
let record (sc : Check.Scenario.t) =
  let t = create () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Probe.install (on_event t);
  Fun.protect
    ~finally:(fun () -> Probe.uninstall ())
    (fun () ->
      sc.Check.Scenario.run fmt;
      Format.pp_print_flush fmt ());
  (t, Buffer.contents buf)
