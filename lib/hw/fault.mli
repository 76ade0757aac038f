(** Fault injection for links: a composable frame-weather model.

    The physical network in the paper's testbed is effectively lossless
    (switched full-duplex Ethernet), so experiments run with {!none}.  The
    reliability layers of CLIC and TCP are exercised by injecting faults
    here: independent or bursty (Gilbert-Elliott) loss, duplication,
    delay jitter (which reorders frames), and timed link up/down flaps.
    Stages combine with {!compose}.

    A fault is consulted once per frame ({!frame}) and answers with the
    surviving copies of that frame and their extra delays. *)

open Engine

type t

type copy = { delay : Time.span; corrupt : bool }
(** The fate of one surviving copy of a frame: its extra delay relative to
    an undisturbed delivery, and whether its bits were flipped in flight
    (the receiving MAC's FCS check will then drop it with a counted
    [bad_fcs] reason). *)

val none : t
(** Never disturbs a frame. *)

val drop : rng:Rng.t -> prob:float -> t
(** Drops each frame independently with probability [prob] in [\[0, 1\]].
    @raise Invalid_argument if [prob] is outside [\[0, 1\]]. *)

val drop_nth : every:int -> t
(** Deterministically drops every [every]-th frame (1-based), for
    reproducible unit tests.  [every] must be positive. *)

val gilbert_elliott :
  rng:Rng.t ->
  p_good_to_bad:float ->
  p_bad_to_good:float ->
  ?loss_good:float ->
  loss_bad:float ->
  unit ->
  t
(** Bursty loss from the two-state Gilbert-Elliott Markov channel.  The
    state advances once per frame ([p_good_to_bad] / [p_bad_to_good]
    transition probabilities); frames are lost with [loss_good] (default 0)
    in the good state and [loss_bad] in the bad state.  Mean burst length
    is [1 / p_bad_to_good] frames; stationary loss rate is
    [loss_bad * p_good_to_bad / (p_good_to_bad + p_bad_to_good)] for
    [loss_good = 0]. *)

val duplicate : rng:Rng.t -> prob:float -> t
(** Delivers each frame twice with probability [prob] (a retransmitting
    link layer or a flooding switch loop). *)

val jitter : rng:Rng.t -> max_delay:Time.span -> t
(** Adds a uniform extra delay in [\[0, max_delay)) to each frame.  Frames
    whose delays cross reorder, so this is also the reordering fault. *)

val flap : up:Time.span -> down:Time.span -> ?phase:Time.span -> unit -> t
(** Timed link flapping: the link repeats [up] of clean delivery followed
    by [down] of total loss, offset by [phase] (default 0) into the
    cycle. *)

val brownout :
  fraction:float ->
  from_:Engine.Time.t ->
  until_:Engine.Time.t ->
  ?label:string ->
  unit ->
  t
(** Fail-slow link: between [from_] (inclusive) and [until_] (exclusive)
    the link's effective rate sags to [fraction] of nominal — it keeps
    delivering, just slower.  Each frame in the window owes
    [(1/fraction - 1)] extra wire time and frames queue behind one another
    in a virtual slow queue, so the backlog compounds like a genuinely
    slower transmitter and FIFO order is preserved (no reordering, unlike
    {!jitter}).  Engagement and clearing are emitted as
    [Probe.Gray_fault { mode = "link-brownout" }] edges under [label]
    (default ["link"]), and slowed frames are counted ({!slowed},
    {!slow_ns}) so soak evidence can demand the sag actually bit.
    @raise Invalid_argument unless [fraction] is in (0,1] and
    [0 <= from_ < until_]. *)

val corrupt : rng:Rng.t -> prob:float -> t
(** Flips bits in each frame independently with probability [prob]: the
    copy still occupies the wire and the receiver's ring, but the MAC's
    FCS check discards it on arrival.  Unlike {!drop} the damage is only
    detected at the receiving NIC, which counts it as [bad_fcs]. *)

val compose : t list -> t
(** Applies the stages in order; a frame survives a composed fault if it
    survives every stage, delays add, corruption flags accumulate, and
    duplicated copies fan out through later stages independently. *)

val frame : t -> now:Time.t -> ser:Time.span -> copy list
(** The fate of one frame at simulation time [now]: one element per
    delivered copy, carrying that copy's extra delay and corruption flag
    ([[{ delay = 0; corrupt = false }]] is an undisturbed delivery; [[]]
    means the frame was dropped).  [ser] is the frame's uncontended
    serialization time on the link, which rate-sensitive stages
    ({!brownout}) scale their extra service from; other stages ignore it.
    An undisturbed pass returns one shared list, so a clean link
    allocates nothing here.  Stateful: call exactly once per frame. *)

val drops : t -> int
(** Frames dropped so far (summed over composed stages). *)

val duplicates : t -> int
(** Extra copies injected so far (summed over composed stages). *)

val corruptions : t -> int
(** Frames whose bits were flipped so far (summed over composed stages). *)

val slowed : t -> int
(** Frames delayed by a {!brownout} so far (summed over composed
    stages). *)

val slow_ns : t -> int
(** Total extra nanoseconds {!brownout} stages have injected (summed over
    composed stages). *)
