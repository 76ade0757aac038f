(** ASCII rendering of figure series and tables. *)

open Engine

val table :
  Format.formatter ->
  header:string list ->
  rows:string list list ->
  unit ->
  unit
(** Column-aligned table with a rule under the header. *)

val series_table :
  Format.formatter ->
  title:string ->
  x_label:string ->
  series:Stats.Series.t list ->
  unit
(** One row per x value (union of all series), one column per series;
    missing points print as "-".  Values are printed with one decimal. *)

val bar : float -> max:float -> width:int -> string
(** A proportional ASCII bar, for quick visual curve shapes. *)

val section : Format.formatter -> string -> unit
(** An underlined section heading. *)

val timeline : Format.formatter -> width:int -> Engine.Trace.span list -> unit
(** An ASCII Gantt chart of trace spans (used by fig7's pipeline view). *)
