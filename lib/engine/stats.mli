(** Measurement accumulators: running summaries, log-scale
    histograms and (x, y) series for figure regeneration. *)

module Summary : sig
  (** Streaming mean / variance / extrema (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

module Histogram : sig
  (** Power-of-two bucketed histogram for latency-style distributions. *)

  type t

  val create : string -> t
  val add : t -> int -> unit
  val count : t -> int

  val percentile : t -> float -> int
  (** Upper bound of the bucket containing the given percentile (0..100).
      Returns 0 for an empty histogram. *)

  val buckets : t -> (int * int) list
  (** [(upper_bound, count)] for each non-empty bucket, ascending. *)
end

module Series : sig
  (** Ordered (x, y) points — one per figure curve. *)

  type t

  val create : name:string -> t
  val name : t -> string
  val add : t -> x:float -> y:float -> unit
  val points : t -> (float * float) list

  val y_at : t -> x:float -> float option
  (** Point lookup at [x], matching within a small relative tolerance (so
      x-values reconstructed through float arithmetic still hit). *)

  val max_y : t -> float
  (** 0 for an empty series. *)

  val interpolate : t -> x:float -> float option
  (** Linear interpolation between surrounding points (log-x friendly data
      should be interpolated by the caller in log space if needed). *)
end
