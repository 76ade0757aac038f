(** Synthetic traffic generators over CLIC, for stress tests, SLO studies
    and multiprogramming experiments.

    Two families share this module.  The {e closed-loop} patterns
    ({!uniform_random}, {!hotspot}, {!ring}) inject a fixed message count
    and run the cluster to quiescence.  The {e open-loop} patterns
    ({!open_loop}, {!partition_aggregate}, {!elephants_mice}) model
    production traffic: request arrivals fire on a seeded random schedule
    whether or not earlier requests have completed, so a slow server or a
    sagging link builds a backlog instead of silently slowing the offered
    load — which is where p99/p999 tails actually come from.

    {b Drain semantics.}  Server and receiver processes are infinite
    loops; when traffic ends each is parked in one final blocking receive
    and the simulation drains around it — that idle park is by design and
    is not an error.  What is {e not} fine is traffic ending while
    receivers are still owed messages: every generator counts that as
    [stranded] ({!stats.stranded} for message counts,
    {!slo.slo_stranded} for open-loop requests that never saw their
    response).  Clean closed-loop runs must report zero.

    All randomness comes from a seeded, splittable generator, so runs are
    reproducible. *)

open Engine

type stats = {
  sent : int;
  delivered : int;  (** messages received by application processes *)
  bytes : int;  (** application bytes delivered *)
  stranded : int;
      (** messages sent but never delivered when the run drained:
          receivers were left blocked waiting for them.  Zero on a clean
          closed-loop run. *)
  elapsed : Time.span;  (** first send to last delivery *)
}

val uniform_random :
  Net.t ->
  seed:int ->
  messages_per_node:int ->
  ?min_size:int ->
  ?max_size:int ->
  ?port:int ->
  unit ->
  stats
(** Every node sends [messages_per_node] messages of uniform random size
    to uniformly random other nodes. *)

val hotspot :
  Net.t ->
  seed:int ->
  target:int ->
  ?senders:int list ->
  messages_per_node:int ->
  ?size:int ->
  ?port:int ->
  unit ->
  stats
(** All nodes hammer [target] — the incast pattern that exercises receive
    rings, staging and the reliability window.  [senders] restricts the
    stampede to the listed nodes (e.g. only the remote racks of a fabric);
    default: everyone but the target.
    @raise Invalid_argument when a sender id is out of range or is the
    target itself. *)

val ring :
  Net.t -> rounds:int -> ?size:int -> ?port:int -> unit -> stats
(** Each node sends to its clockwise neighbour, [rounds] times, waiting
    for its own neighbour's message between rounds (bounded skew). *)

(** {1 Open-loop request-response workloads} *)

(** Inter-arrival schedule for open-loop request streams. *)
type arrival =
  | Poisson of { mean_gap : Time.span }
      (** Memoryless arrivals: exponential gaps with the given mean. *)
  | Pareto of { shape : float; min_gap : Time.span }
      (** Heavy-tailed arrivals: gaps are Pareto with minimum [min_gap]
          and tail index [shape].  [shape] must exceed 1 so the mean gap
          [shape * min_gap / (shape - 1)] exists; smaller shapes are
          burstier. *)

val validate_arrival : arrival -> unit
(** @raise Invalid_argument for a non-positive gap or a Pareto shape
    [<= 1] (construction-time validation; every generator calls it). *)

type slo = {
  slo_requests : int;  (** arrivals fired *)
  slo_completed : int;  (** responses received *)
  slo_timeouts : int;
      (** completed requests whose latency exceeded the deadline *)
  slo_stranded : int;  (** requests never answered when the run drained *)
  slo_p50_us : float;
  slo_p99_us : float;
  slo_p999_us : float;  (** latency percentiles over completed requests *)
  slo_mean_us : float;
  slo_max_us : float;
  slo_goodput_mbps : float;  (** response payload bits delivered per second *)
  slo_elapsed : Time.span;
  slo_samples : (Time.t * float) array;
      (** per-request (arrival instant, latency in µs), in completion
          order — the raw material for SLO contracts that need to split
          samples into healthy / degraded / recovery phases *)
}

val quantile : float array -> float -> float
(** [quantile samples p] is the nearest-rank [p]-th percentile of
    [samples] (not modified; sorted internally): index
    [min (n-1) (floor (p/100 * n))] of the sorted array.  0 on an empty
    array.
    @raise Invalid_argument if [p] is outside [\[0, 100\]]. *)

val open_loop :
  Net.t ->
  seed:int ->
  arrival:arrival ->
  ?requests_per_node:int ->
  ?req_size:int ->
  ?resp_size:int ->
  ?deadline:Time.span ->
  ?port:int ->
  unit ->
  stats * slo
(** Every node runs an open-loop client firing [requests_per_node]
    requests at random other nodes on the [arrival] schedule, plus a
    single-threaded echo server answering [resp_size] bytes on
    [port + 1].  Latency is charged from the scheduled arrival instant —
    client-side backlog counts against the tail, as it does in
    production.  [deadline] (default 0 = none) counts completions slower
    than it as [slo_timeouts].
    @raise Invalid_argument for non-positive sizes or counts, a negative
    deadline, a bad [arrival], or fewer than 2 nodes. *)

val open_loop_oneway :
  Net.t ->
  seed:int ->
  arrival:arrival ->
  ?requests_per_node:int ->
  ?req_size:int ->
  ?deadline:Time.span ->
  ?port:int ->
  unit ->
  stats * slo
(** One-way variant of {!open_loop}: the same seeded arrival schedule,
    but no response leg — latency is the delivery instant minus the
    scheduled arrival, so client backlog and everything the fabric does
    to the request still land in the tail.  Each node's send order
    equals its arrival schedule (the dispatcher is the only send
    producer), which keeps the logical trace invariant under seeded
    same-instant permutations; the pinned [slo] scenario runs this
    variant.  Goodput counts request payload.
    @raise Invalid_argument as {!open_loop}. *)

type fanout_stats = {
  fo_queries : int;
  fo_completed : int;
  fo_stragglers : int;
      (** completed queries whose slowest leaf answered more than the
          straggler slack after the fastest *)
  fo_leaf_p99_us : float;  (** p99 over individual leaf responses *)
}

val partition_aggregate :
  Net.t ->
  seed:int ->
  ?queries:int ->
  ?fanout:int ->
  ?arrival:arrival ->
  ?req_size:int ->
  ?resp_size:int ->
  ?straggler_slack:Time.span ->
  ?deadline:Time.span ->
  ?port:int ->
  unit ->
  stats * slo * fanout_stats
(** Websearch-style partition-aggregate: node 0 fans each query out to a
    random [fanout]-subset of the other nodes (default: all of them) and
    the query completes when the slowest leaf has answered, so the query
    tail is the straggler tail.  [slo] percentiles are over query
    completion times; [fanout_stats] accounts for stragglers.
    @raise Invalid_argument for a fanout outside [\[1, n-1\]] or the usual
    size/count/arrival violations. *)

type mix = {
  mix_elephants : stats;  (** bulk transfer delivery *)
  mix_mice : stats;  (** open-loop request-response delivery *)
  mix_slo : slo;  (** the mice's latency SLO record *)
}

val elephants_mice :
  Net.t ->
  seed:int ->
  ?elephant_pairs:int ->
  ?elephant_messages:int ->
  ?elephant_size:int ->
  ?arrival:arrival ->
  ?requests_per_node:int ->
  ?req_size:int ->
  ?resp_size:int ->
  ?deadline:Time.span ->
  ?port:int ->
  unit ->
  mix
(** Bandwidth-heavy elephants (node [k] streams [elephant_messages]
    messages of [elephant_size] bytes to the node halfway around the
    cluster, for [elephant_pairs] senders, default [n/4]) sharing the
    fabric with latency-sensitive open-loop mice on every node.  The
    interesting output is [mix_slo]: what the elephants did to the mice's
    tail. *)

(** {1 Gray-failure injection} *)

val inject_gray :
  Net.t ->
  ?nic_nodes:int list ->
  ?nic_factor:float ->
  ?stall_nodes:int list ->
  ?stall_every:Time.span ->
  ?stall_span:Time.span ->
  from_:Time.t ->
  until_:Time.t ->
  unit ->
  unit
(** Schedules a fail-slow window over the cluster: from [from_] to
    [until_], the NICs of [nic_nodes] serve frames [nic_factor] times
    slower ({!Hw.Nic.set_slow_factor}), and every switch port facing a
    node in [stall_nodes] freezes its egress pump for [stall_span] every
    [stall_every] ({!Hw.Switch.inject_stall}).  Call before running the
    net; link brownouts compose via the node config's [link_fault]
    ({!Hw.Fault.brownout}).  Nothing dies, nothing announces itself —
    that is the point.
    @raise Invalid_argument for an empty window, a factor below 1,
    non-positive stall periods, or an unknown node id. *)
