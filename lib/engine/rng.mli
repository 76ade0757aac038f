(** Deterministic splittable pseudo-random numbers (SplitMix64).

    Workload generators get independent streams by {!split}ting, so adding a
    generator never perturbs the draws of existing ones — runs stay
    reproducible as experiments grow. *)

type t

val create : seed:int -> t

val split : t -> t
(** A statistically independent child stream. *)

val bits64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto(Type I) distributed: values are [>= scale] with tail
    [P(X > x) = (scale / x) ^ shape].  The mean [shape * scale /
    (shape - 1)] exists only for [shape > 1]; callers that need a finite
    mean (open-loop arrival schedules) must validate that themselves.
    [shape] and [scale] must be positive. *)
