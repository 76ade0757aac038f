(** A switched cluster of nodes over an arbitrary fabric.

    [create ~n ()] builds [n] identical nodes around one Gigabit Ethernet
    switch per NIC rank (channel bonding uses parallel switched networks,
    the "several network cards ... when a switch is used" arrangement of
    the paper's Section 5) — it is exactly [create_topo] over
    {!Topology.star}.

    [create_topo ~topo ()] instantiates any {!Topology}: one physical
    switch per (logical switch × NIC rank), trunks between them, each node
    attached to its own ToR per rank (so crash/reboot rewiring follows the
    fabric), and — unless the topology is a learning one — the compiled
    all-pairs ECMP routes installed on every switch. *)

open Engine
open Hw

type t = {
  sim : Sim.t;
  switches : Switch.t list;
      (** every physical switch, rank-major in topology declaration order
          (the legacy star exposes exactly one per NIC rank, as before) *)
  nodes : Node.t array;
  config : Node.config;
  topo : Topology.t;
  fabric : (string * Switch.t) list list;
      (** per NIC rank: topology prefix → physical switch *)
  mutable failed : string list;  (** currently-failed switch prefixes *)
}

val create : ?config:Node.config -> n:int -> unit -> t
val create_topo : ?config:Node.config -> topo:Topology.t -> unit -> t

val switch : t -> ?rank:int -> string -> Switch.t
(** The physical switch for a topology prefix at a NIC rank (default 0).
    @raise Invalid_argument on unknown prefixes or ranks. *)

val fail_switch : t -> string -> unit
(** Powers the named switch down at every rank ({!Switch.set_down}) and —
    on static-routed fabrics — recompiles routes around the failure:
    surviving equal-cost paths absorb the traffic, destinations with no
    remaining path become unroutable.  Idempotent. *)

val restore_switch : t -> string -> unit
(** Powers the switch back up and recompiles routes to use it again. *)

val failed_switches : t -> string list

val node : t -> int -> Node.t
val size : t -> int

val run : t -> unit
(** Runs the simulation to quiescence. *)
