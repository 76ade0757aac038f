(** Declarative fabric topologies.

    A topology is pure data: logical switch name prefixes, trunks between
    them, and a host→switch attachment map.  {!Net.create_topo}
    instantiates one copy per NIC rank, naming each physical switch
    [prefix ^ string_of_int rank] — the {!star}'s single ["switch"] prefix
    therefore yields the historical ["switch0"], keeping the legacy
    single-switch wiring byte-identical.

    {!Net.create_topo} compiles {!routes} — all-pairs BFS shortest paths
    with equal-cost next-hop sets — into static ECMP switch routes, the
    fabric's only forwarding: unicast frames follow them to their
    destination, and group-addressed frames flood back along them
    ({!Hw.Switch}'s reverse-path check).  They are loop-free by
    construction (the distance to the destination strictly decreases at
    every hop). *)

type t

val make :
  switches:string list ->
  trunks:(string * string) list ->
  hosts:string array ->
  unit ->
  t
(** [hosts.(id)] names the switch node [id] attaches to; every trunk is an
    unordered switch pair.  {!star} and {!leaf_spine} are special cases.
    @raise Invalid_argument on duplicate switches or trunks, self-trunks,
    references to unknown switches, or a disconnected trunk graph. *)

val star : n:int -> t
(** [n] hosts on one switch — the legacy cluster, and the compatibility
    baseline. *)

val leaf_spine : racks:int -> per_rack:int -> spines:int -> unit -> t
(** Every ToR trunked to every spine: [spines]-way ECMP between racks,
    oversubscribed whenever [per_rack] exceeds [spines]. *)

val n : t -> int
(** Host count; node ids run [0 .. n-1]. *)

val switches : t -> string list
(** Switch prefixes in declaration order (the instantiation order). *)

val trunks : t -> (string * string) list

val attach : t -> int -> string
(** The switch prefix host [id] attaches to. *)

val routes : ?excluding:string list -> t -> (string * int * string list) list
(** All-pairs static routing table: [(at, dst, via)] means switch [at]
    reaches host [dst] through any trunk in [via] (equal-cost set, in
    trunk declaration order).  [excluding] drops failed switches from the
    graph — routes through them vanish and destinations behind them
    disappear; recompiling with a new exclusion set is how the fabric
    reroutes around a dead spine. *)
