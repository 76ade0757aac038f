(** Time-series metrics derived from a recorded probe stream.

    Thirteen instrument families: [cpu-utilization] and
    [bus-utilization] (bucketed busy fractions from resource-occupancy
    spans), [irq-rate] (interrupts per second per NIC), [queue-depth]
    (NIC rx rings, switch egress buffers, link queues), [channel-window]
    (packets in flight per channel direction), [pool-bytes] (kernel
    staging memory in use), [msg-count] (cumulative messages sent /
    delivered per node), [switch-buffer] (shared-buffer bytes occupied
    per switch), [switch-drop] (frames dropped per switch port and
    direction), [pause] (802.3x flow control: a [.state] gauge that is
    1 while a host's transmit path is PAUSEd, plus [.tx]/[.rx] frame
    counters), [ecn-mark] (frames CE-marked per switch port), [sack]
    (acks carrying SACK blocks per channel direction) and
    [latency-quantile] (running p50/p99/p999 of message delivery
    latency per receiving node, one sample per delivery).

    Exports are deterministic: series sorted by name, fixed float
    formatting. *)

type kind = Gauge | Rate | Counter

type series = {
  s_name : string;  (** "family/instrument", e.g. "cpu-utilization/cpu0" *)
  s_kind : kind;
  s_unit : string;
  s_points : (int * float) list;  (** (t_ns, value), time-ascending *)
}

type t = { bucket_ns : int; series : series list }

val build : ?bucket_ns:int -> Recorder.t -> t
(** Derive all series.  [bucket_ns] sets the window for utilization and
    rate series; the default divides the run into ~200 buckets.
    @raise Invalid_argument if [bucket_ns <= 0]. *)

val families : t -> string list
(** Distinct instrument families present, sorted. *)

val to_csv : t -> string
(** "series,kind,unit,t_ns,value" rows. *)

val to_json : t -> string

val pp_summary : Format.formatter -> t -> unit
(** One line per series: point count, last value, peak. *)
