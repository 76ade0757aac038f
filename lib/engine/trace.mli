(** Pipeline stage tracing, used to regenerate the paper's Figure 7 (the
    per-stage timing of a packet flowing through the CLIC path).

    A trace collects named stage intervals.  Stages may overlap (the send
    DMA overlaps the wire flight, for instance); the reporting code decides
    how to present them.  Tracing is cheap and can be left attached. *)

type t

type span = { label : string; start : Time.t; finish : Time.t }

val create : Sim.t -> t
val set_enabled : t -> bool -> unit

val record : t -> string -> Time.t -> Time.t -> unit
(** Record a completed stage explicitly. *)

val run : t -> string -> (unit -> 'a) -> 'a
(** [run t label f] times [f] (which may suspend) as one stage. *)

val mark : t -> string -> unit
(** A zero-length event marker. *)

val spans : t -> span list
(** Recorded spans in start order. *)

val duration : t -> string -> Time.span option
(** Total time of all spans with the given label, summed {e with}
    multiplicity: two overlapping spans of the same label each contribute
    their full length, so the result can exceed wall-clock time.  This is
    the right reading for per-stage {e work} (Figure 7 sums stage costs),
    but not for occupancy.  Use {!disjoint_duration} for wall-clock
    coverage.  [None] when no span carries the label. *)

val disjoint_duration : t -> string -> Time.span option
(** Wall-clock time covered by spans with the given label: overlapping
    intervals are merged before measuring, so each instant counts once.
    [disjoint_duration t l <= duration t l] always.  The latency
    attribution pass in [lib/obs] uses this reading.  [None] when no span
    carries the label. *)

val merged_length : (Time.t * Time.t) list -> Time.span
(** Total length of the union of the given [(start, finish)] intervals
    (overlaps counted once).  Exposed for observability-layer passes that
    merge probe spans without building a trace. *)
