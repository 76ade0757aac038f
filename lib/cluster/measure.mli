(** Measurement harnesses: the benchmark procedures behind every figure.

    A {!pair} abstracts one A↔B communication path (CLIC, TCP, MPI on
    either, PVM...) so the same NetPIPE-style procedures run over every
    stack.  All measurements run the given cluster's simulation to
    completion, so use a fresh cluster per data point. *)

open Engine

type pair = {
  label : string;
  a_setup : unit -> unit;  (** runs once in a process on node A *)
  b_setup : unit -> unit;
  a_send : int -> unit;  (** send one n-byte message A→B *)
  a_recv : int -> unit;  (** consume one n-byte message at A *)
  b_send : int -> unit;
  b_recv : int -> unit;
}

val clic_pair : Net.t -> a:int -> b:int -> ?port:int -> unit -> pair
val tcp_pair : Net.t -> a:int -> b:int -> ?port:int -> unit -> pair

type pingpong_result = {
  one_way : Time.span;  (** mean one-way time (half round trip) *)
  pp_bandwidth_mbps : float;  (** size / one-way, the NetPIPE figure *)
}

val pingpong :
  Net.t -> pair -> size:int -> ?reps:int -> ?warmup:int -> unit ->
  pingpong_result
(** Round-trip exchange of [size]-byte messages, [reps] timed iterations
    after [warmup] untimed ones. *)

type stream_result = {
  elapsed : Time.span;
  st_bandwidth_mbps : float;  (** application goodput *)
  sender_cpu : float;  (** CPU utilization during the timed window *)
  receiver_cpu : float;
  receiver_interrupts : int;
}

val stream :
  Net.t -> pair -> a:int -> b:int -> size:int -> messages:int ->
  stream_result
(** One-way saturation stream of [messages] × [size] bytes; bandwidth is
    measured at the receiving application. *)
