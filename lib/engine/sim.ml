(* The event loop is the hottest code in the repository: every frame on
   every link, every process suspension and every timer goes through it.
   The representation is built so the steady state allocates nothing per
   event and keeps the OCaml write barrier off the hot path:

   - Events live in a slot arena of parallel arrays (thunk, seq, tie,
     state, generation), not in per-event records.  A free-slot stack
     recycles drained and cancelled slots, so a steady stream of
     {!post}s allocates nothing; the only pointer write per event is
     storing the thunk into its slot (a free slot keeps its fired
     closure until reuse overwrites it — the run entry points sweep the
     leftovers when they return, so nothing is retained past a drain).

   - The queue is a 4-ary min-heap over three unboxed [int array]s: the
     sort key ([at]), a first-level tie-break ([aux]: the unique seq in
     FIFO mode, the seeded tie key otherwise) and the slot index.  Sift
     loops compare and move plain ints in flat, cache-resident arrays —
     no pointer chasing and no [caml_modify] per level (moving boxed
     event records costs a write-barrier call per sift level; moving
     ints costs a store), and in FIFO mode they never touch the slot
     arrays at all because the aux seq decides every key tie.  The sift
     loops use unchecked array access — indices are bounded by [hsize],
     which never exceeds the shared capacity.

   - Handle-returning {!schedule} allocates a small handle per call.  The
     handle names its slot through a generation counter, so a handle
     retained long after its event fired (timer fields commonly do this)
     can never touch a recycled slot.

   - After any {!cancel}, cancelled heap entries do not outnumber live
     ones: the cancel that would tip the balance compacts the heap (see
     [compact]).  Protocols cancel and re-arm RTO and delayed-ACK timers
     far more often than they let one fire, so without this the heap
     fills with dead timers that every sift must step over until their
     old deadline. *)

type t = {
  mutable clock : Time.t;
  (* Queue: 4-ary min-heap, positions 0..hsize-1 of three parallel int
     arrays.  All arrays below share one capacity and grow together. *)
  mutable keys : int array; (* heap-ordered firing times *)
  mutable haux : int array; (* first tie-break: seq (FIFO) or tie key *)
  mutable hidx : int array; (* heap position -> arena slot *)
  mutable hsize : int;
  (* Slot arena: one queued event per slot, parallel arrays. *)
  mutable s_thunk : (unit -> unit) array;
  mutable s_seq : int array; (* monotone; FIFO tie-break *)
  mutable s_tie : int array; (* seeded permutation key; unused in FIFO *)
  mutable s_state : int array; (* st_scheduled / st_cancelled *)
  mutable s_gen : int array; (* bumped on free; validates handles *)
  mutable free : int array; (* free-slot stack *)
  mutable free_n : int;
  mutable slots_used : int; (* slots ever handed out; rest are virgin *)
  fifo : bool; (* no tie-break rng: comparisons skip [s_tie] *)
  tie_rng : Rng.t option;
  mutable next_seq : int;
  mutable executed : int;
  mutable live : int; (* scheduled and not cancelled/fired *)
}

(* [hcancelled] mirrors the successful-cancel outcome so {!is_cancelled}
   stays true even after the cancelled slot drains and is recycled. *)
type handle = {
  owner : t;
  slot : int;
  gen : int;
  mutable hcancelled : bool;
}

let ignore_thunk () = ()
let st_scheduled = 0
let st_cancelled = 1

(* Last-resort ordering when key and aux both compare equal: impossible
   in FIFO mode (aux is the unique seq); in rng mode two events drew the
   same tie key and scheduling order decides. *)
let[@inline] [@clic.hot] seq_before sim sa sb =
  Array.unsafe_get sim.s_seq sa < Array.unsafe_get sim.s_seq sb

(* Hole-based sifts: carry the moving (key, aux, slot) triple in locals
   and write it once at its final position instead of swapping per
   level. *)
let[@clic.hot] sift_up sim i0 =
  let keys = sim.keys and haux = sim.haux and hidx = sim.hidx in
  let kev = Array.unsafe_get keys i0 in
  let aev = Array.unsafe_get haux i0 in
  let sev = Array.unsafe_get hidx i0 in
  let i = ref i0 and stop = ref false in
  while !i > 0 && not !stop do
    let p = (!i - 1) lsr 2 in
    let kp = Array.unsafe_get keys p in
    let ap = Array.unsafe_get haux p in
    if
      kev < kp
      || (kev = kp
          && (aev < ap
              || (aev = ap
                  && seq_before sim sev (Array.unsafe_get hidx p))))
    then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set haux !i ap;
      Array.unsafe_set hidx !i (Array.unsafe_get hidx p);
      i := p
    end
    else stop := true
  done;
  Array.unsafe_set keys !i kev;
  Array.unsafe_set haux !i aev;
  Array.unsafe_set hidx !i sev

let[@clic.hot] sift_down sim i0 =
  let keys = sim.keys and haux = sim.haux and hidx = sim.hidx in
  let n = sim.hsize in
  let kev = Array.unsafe_get keys i0 in
  let aev = Array.unsafe_get haux i0 in
  let sev = Array.unsafe_get hidx i0 in
  let i = ref i0 and stop = ref false in
  while not !stop do
    let base = (!i lsl 2) + 1 in
    if base >= n then stop := true
    else begin
      (* Smallest of the four children: positions >= hsize hold sentinel
         keys (max_int), so the block of four is always readable and the
         scan unrolls with no bounds arithmetic.  A sentinel can only
         win against another sentinel, and the final comparison against
         the real moving key rejects it. *)
      let c = ref base
      and kc = ref (Array.unsafe_get keys base)
      and ac = ref (Array.unsafe_get haux base) in
      let j = base + 1 in
      let kj = Array.unsafe_get keys j in
      let aj = Array.unsafe_get haux j in
      if
        kj < !kc
        || (kj = !kc
            && (aj < !ac
                || (aj = !ac
                    && seq_before sim (Array.unsafe_get hidx j)
                         (Array.unsafe_get hidx !c))))
      then begin
        c := j;
        kc := kj;
        ac := aj
      end;
      let j = base + 2 in
      let kj = Array.unsafe_get keys j in
      let aj = Array.unsafe_get haux j in
      if
        kj < !kc
        || (kj = !kc
            && (aj < !ac
                || (aj = !ac
                    && seq_before sim (Array.unsafe_get hidx j)
                         (Array.unsafe_get hidx !c))))
      then begin
        c := j;
        kc := kj;
        ac := aj
      end;
      let j = base + 3 in
      let kj = Array.unsafe_get keys j in
      let aj = Array.unsafe_get haux j in
      if
        kj < !kc
        || (kj = !kc
            && (aj < !ac
                || (aj = !ac
                    && seq_before sim (Array.unsafe_get hidx j)
                         (Array.unsafe_get hidx !c))))
      then begin
        c := j;
        kc := kj;
        ac := aj
      end;
      if
        !kc < kev
        || (!kc = kev
            && (!ac < aev
                || (!ac = aev
                    && seq_before sim (Array.unsafe_get hidx !c) sev)))
      then begin
        Array.unsafe_set keys !i !kc;
        Array.unsafe_set haux !i !ac;
        Array.unsafe_set hidx !i (Array.unsafe_get hidx !c);
        i := !c
      end
      else stop := true
    end
  done;
  Array.unsafe_set keys !i kev;
  Array.unsafe_set haux !i aev;
  Array.unsafe_set hidx !i sev

let[@inline never] grow sim =
  let cap = Array.length sim.free in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let g fill a =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 (Array.length a);
    n
  in
  (* The heap arrays carry 3 extra sentinel positions (keys = max_int)
     so the 4-ary child scan can always read a full block of four
     children without bounds arithmetic; [pop_root] restores the
     sentinel when the heap shrinks. *)
  let gh fill a =
    let n = Array.make (ncap + 3) fill in
    Array.blit a 0 n 0 (Array.length a);
    n
  in
  sim.keys <- gh max_int sim.keys;
  sim.haux <- gh 0 sim.haux;
  sim.hidx <- gh 0 sim.hidx;
  sim.s_thunk <- g ignore_thunk sim.s_thunk;
  sim.s_seq <- g 0 sim.s_seq;
  sim.s_tie <- g 0 sim.s_tie;
  sim.s_state <- g st_scheduled sim.s_state;
  sim.s_gen <- g 0 sim.s_gen;
  sim.free <- g 0 sim.free

let[@inline] [@clic.hot] alloc_slot sim =
  let n = sim.free_n in
  if n > 0 then begin
    sim.free_n <- n - 1;
    Array.unsafe_get sim.free (n - 1)
  end
  else begin
    if sim.slots_used >= Array.length sim.free then grow sim;
    let s = sim.slots_used in
    sim.slots_used <- s + 1;
    s
  end

(* Returns a drained or cancelled slot to the free stack.  The generation
   bump invalidates any handle still naming the slot.  The slot's thunk
   is deliberately NOT cleared here: the store would pay a write-barrier
   call per event (and skipping the barrier is unsound — OCaml 5's major
   GC darkens overwritten pointers to keep its snapshot invariant), and
   reuse overwrites it through the barrier in {!enqueue} anyway.  So a
   free slot retains its fired closure until reuse — bounded by the
   arena capacity — and {!clear_free_thunks} drops the stragglers in one
   cold sweep whenever a run entry point returns control. *)
let[@inline] [@clic.hot] free_slot sim s =
  Array.unsafe_set sim.s_gen s (Array.unsafe_get sim.s_gen s + 1);
  Array.unsafe_set sim.free sim.free_n s;
  sim.free_n <- sim.free_n + 1

let clear_free_thunks sim =
  for i = 0 to sim.free_n - 1 do
    let s = Array.unsafe_get sim.free i in
    if Array.unsafe_get sim.s_thunk s != ignore_thunk then
      Array.unsafe_set sim.s_thunk s ignore_thunk
  done

(* The determinism checker sets a process-wide default so that scenarios
   which create simulators internally (figures, nested nets) inherit the
   permuted tie-breaking without plumbing a parameter everywhere. *)
let default_tie_break : int option ref = ref None
let set_default_tie_break seed = default_tie_break := seed

let create ?tie_break () =
  let seed =
    match tie_break with Some s -> Some s | None -> !default_tie_break
  in
  if !Probe.on then Probe.emit Probe.Sim_start;
  let tie_rng = Option.map (fun seed -> Rng.create ~seed) seed in
  {
    clock = Time.zero;
    keys = [||];
    haux = [||];
    hidx = [||];
    hsize = 0;
    s_thunk = [||];
    s_seq = [||];
    s_tie = [||];
    s_state = [||];
    s_gen = [||];
    free = [||];
    free_n = 0;
    slots_used = 0;
    fifo = (match tie_rng with None -> true | Some _ -> false);
    tie_rng;
    next_seq = 0;
    executed = 0;
    live = 0;
  }

let now sim = sim.clock

let[@inline never] past_error at now =
  invalid_arg
    (Printf.sprintf "Sim.schedule_at: %d is in the past (now=%d)" at now)

(* Shared enqueue: claims a slot, fills it, pushes it on the heap.
   Returns the slot for {!schedule_at} to wrap in a handle. *)
let[@inline] [@clic.hot] enqueue sim ~at thunk =
  if at < sim.clock then past_error at sim.clock;
  if at = max_int then invalid_arg "Sim.schedule_at: at = max_int is reserved";
  let seq = sim.next_seq in
  let s = alloc_slot sim in
  Array.unsafe_set sim.s_thunk s thunk;
  Array.unsafe_set sim.s_seq s seq;
  Array.unsafe_set sim.s_state s st_scheduled;
  (* First-level tie-break carried beside the key: the unique seq in
     FIFO mode (sifts then never touch the slot arrays), the seeded tie
     key under the determinism checker's permuted ordering. *)
  let aux =
    match sim.tie_rng with
    | None -> seq
    | Some rng ->
        let tie = Rng.int rng 0x3FFFFFFF in
        Array.unsafe_set sim.s_tie s tie;
        tie
  in
  sim.next_seq <- seq + 1;
  sim.live <- sim.live + 1;
  let i = sim.hsize in
  sim.hsize <- i + 1;
  Array.unsafe_set sim.keys i at;
  Array.unsafe_set sim.haux i aux;
  Array.unsafe_set sim.hidx i s;
  sift_up sim i;
  s

let schedule_at sim ~at thunk =
  let s = enqueue sim ~at thunk in
  { owner = sim; slot = s; gen = Array.unsafe_get sim.s_gen s;
    hcancelled = false }

let schedule sim ~after thunk =
  if after < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at sim ~at:(Time.add sim.clock after) thunk

let[@clic.hot] post_at sim ~at thunk = ignore (enqueue sim ~at thunk : int)

let[@clic.hot] post sim ~after thunk =
  if after < 0 then invalid_arg "Sim.post: negative delay";
  post_at sim ~at:(Time.add sim.clock after) thunk

(* Drops every cancelled entry from the heap, frees its slot (the
   generation bump keeps stale handles inert) and rebuilds the heap in
   place, bottom-up.  The entries form a total order on (key, aux, seq),
   so the pop sequence is a function of the set of live entries alone,
   whatever the heap's shape: removing dead entries early changes
   nothing any event can observe.  The vacated positions get their
   sentinel keys back. *)
let[@inline never] compact sim =
  let keys = sim.keys and haux = sim.haux and hidx = sim.hidx in
  let n = sim.hsize in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get hidx i in
    if Array.unsafe_get sim.s_state s = st_cancelled then free_slot sim s
    else begin
      Array.unsafe_set keys !k (Array.unsafe_get keys i);
      Array.unsafe_set haux !k (Array.unsafe_get haux i);
      Array.unsafe_set hidx !k s;
      incr k
    end
  done;
  Array.fill keys !k (n - !k) max_int;
  sim.hsize <- !k;
  for i = (!k - 2) asr 2 downto 0 do
    sift_down sim i
  done

let cancel h =
  if not h.hcancelled then begin
    let sim = h.owner in
    if
      sim.s_gen.(h.slot) = h.gen && sim.s_state.(h.slot) = st_scheduled
    then begin
      sim.s_state.(h.slot) <- st_cancelled;
      sim.s_thunk.(h.slot) <- ignore_thunk;
      sim.live <- sim.live - 1;
      h.hcancelled <- true;
      (* The heap holds [live] entries plus the cancelled ones.  A
         compaction costs O(hsize) < 2x the cancels since the last one,
         so it is amortised O(1) per cancel. *)
      if sim.hsize - sim.live > sim.live then compact sim
    end
  end

let is_cancelled h = h.hcancelled

(* Removes the root; positions past [hsize] hold only ints, so nothing
   needs clearing. *)
let[@inline] [@clic.hot] pop_root sim =
  let n = sim.hsize - 1 in
  sim.hsize <- n;
  if n > 0 then begin
    Array.unsafe_set sim.keys 0 (Array.unsafe_get sim.keys n);
    Array.unsafe_set sim.haux 0 (Array.unsafe_get sim.haux n);
    Array.unsafe_set sim.hidx 0 (Array.unsafe_get sim.hidx n);
    Array.unsafe_set sim.keys n max_int;
    sift_down sim 0
  end
  else Array.unsafe_set sim.keys 0 max_int

(* Process-wide count of events fired across every simulator, for the
   events/sec benchmarks: scenarios create simulators internally, so a
   per-simulator counter cannot be totalled from outside. *)
let total_executed = ref 0
let global_events_executed () = !total_executed

let[@clic.hot] rec step sim =
  if sim.hsize = 0 then false
  else begin
    let at = Array.unsafe_get sim.keys 0 in
    let s = Array.unsafe_get sim.hidx 0 in
    pop_root sim;
    if Array.unsafe_get sim.s_state s = st_cancelled then begin
      (* [cancel] already removed it from the live count. *)
      free_slot sim s;
      step sim
    end
    else begin
      sim.clock <- at;
      sim.live <- sim.live - 1;
      sim.executed <- sim.executed + 1;
      incr total_executed;
      let thunk = Array.unsafe_get sim.s_thunk s in
      (* Free before dispatch so the thunk's own posts reuse the slot. *)
      free_slot sim s;
      if !Probe.on then Probe.emit (Probe.Clock { now = at });
      thunk ();
      true
    end
  end

let run sim =
  while step sim do () done;
  clear_free_thunks sim

let run_n sim n =
  if n < 0 then invalid_arg "Sim.run_n: negative count";
  let i = ref 0 in
  while !i < n && step sim do
    incr i
  done;
  clear_free_thunks sim;
  !i

let run_until sim ~limit =
  let continue_ = ref true in
  while !continue_ do
    if sim.hsize = 0 then continue_ := false
    else begin
      let s = Array.unsafe_get sim.hidx 0 in
      if Array.unsafe_get sim.s_state s = st_cancelled then begin
        pop_root sim;
        free_slot sim s
      end
      else if Array.unsafe_get sim.keys 0 <= limit then ignore (step sim)
      else continue_ := false
    end
  done;
  if sim.clock < limit then sim.clock <- limit;
  clear_free_thunks sim

let pending sim = sim.live
let events_executed sim = sim.executed
