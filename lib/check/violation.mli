(** A single finding from any analysis pass.

    The record is concrete: callers pattern-match and build findings
    directly (custom monitors, tests).  [detail] is free-form; for
    lifecycle findings it carries the object's event backtrace. *)

type t = {
  pass : string;  (** "lifecycle", "invariant:<rule>", "determinism", ... *)
  rule : string;
  time_ns : int;  (** simulation instant of the finding *)
  detail : string;
}

val make : pass:string -> rule:string -> time_ns:int -> string -> t

val crash : time_ns:int -> exn -> Printexc.raw_backtrace -> t
(** The [crash]/[uncaught-exception] finding for an exception that ended a
    run.  When backtraces are being recorded ({!Printexc.record_backtrace})
    its detail names the raise site, the backtrace's first frame with a
    source location, as [", raised at FILE:LINE"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val by_time : t -> t -> int
(** Orders by simulation time, then by (pass, rule, detail) so reports
    are deterministic. *)
