(* A declarative fabric description: logical switches (name prefixes),
   trunks between them, and a host-to-switch attachment map.  Pure data —
   Net.create_topo instantiates it once per NIC rank, naming each switch
   [prefix ^ string_of_int rank] (the star's single "switch" prefix thus
   yields "switch0", byte-identical to the historical wiring). *)

type t = {
  n : int;
  switches : string list;
  trunks : (string * string) list;
  hosts : string array;  (* node id -> switch prefix *)
}

let n t = t.n
let switches t = t.switches
let trunks t = t.trunks

let attach t id =
  if id < 0 || id >= t.n then invalid_arg "Topology.attach: bad node id";
  t.hosts.(id)

(* Trunk declaration order is preserved here, which keeps BFS visit order
   — and with it every ECMP next-hop list — deterministic. *)
let neighbours t name =
  List.filter_map
    (fun (a, b) ->
      if a = name then Some b else if b = name then Some a else None)
    t.trunks

(* BFS hop counts from [root] over the trunk graph, ignoring [excluding]
   (failed switches). *)
let distances ?(excluding = []) t root =
  let dist = Hashtbl.create 16 in
  if not (List.mem root excluding) then begin
    Hashtbl.replace dist root 0;
    let q = Queue.create () in
    Queue.add root q;
    while not (Queue.is_empty q) do
      let x = Queue.take q in
      let d = Hashtbl.find dist x in
      List.iter
        (fun y ->
          if (not (List.mem y excluding)) && not (Hashtbl.mem dist y) then begin
            Hashtbl.replace dist y (d + 1);
            Queue.add y q
          end)
        (neighbours t x)
    done
  end;
  dist

let validate t =
  if t.n <= 0 then invalid_arg "Topology: n <= 0";
  if t.switches = [] then invalid_arg "Topology: no switches";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s then
        invalid_arg (Printf.sprintf "Topology: duplicate switch %s" s);
      Hashtbl.add seen s ())
    t.switches;
  Array.iteri
    (fun id s ->
      if not (Hashtbl.mem seen s) then
        invalid_arg
          (Printf.sprintf "Topology: host %d attached to unknown switch %s" id
             s))
    t.hosts;
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg (Printf.sprintf "Topology: self-trunk %s" a);
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then
            invalid_arg (Printf.sprintf "Topology: trunk to unknown switch %s" s))
        [ a; b ];
      let key = if a < b then (a, b) else (b, a) in
      if Hashtbl.mem pairs key then
        invalid_arg (Printf.sprintf "Topology: duplicate trunk %s=%s" a b);
      Hashtbl.add pairs key ())
    t.trunks;
  let reach = distances t (List.hd t.switches) in
  List.iter
    (fun s ->
      if not (Hashtbl.mem reach s) then
        invalid_arg (Printf.sprintf "Topology: switch %s is disconnected" s))
    t.switches

let make ~switches ~trunks ~hosts () =
  let t = { n = Array.length hosts; switches; trunks; hosts } in
  validate t;
  t

(* All-pairs static routing: one BFS per host-bearing switch.  For each
   other switch X the ECMP next-hop set is every neighbour strictly closer
   to the destination's switch — loop-free by construction, since the
   distance decreases at every hop. *)
let routes ?(excluding = []) t =
  let alive = List.filter (fun s -> not (List.mem s excluding)) t.switches in
  let ids = List.init t.n Fun.id in
  List.concat_map
    (fun s ->
      let hosts_here = List.filter (fun id -> t.hosts.(id) = s) ids in
      if hosts_here = [] then []
      else
        let dist = distances ~excluding t s in
        List.concat_map
          (fun x ->
            if x = s then []
            else
              match Hashtbl.find_opt dist x with
              | None -> []  (* destination unreachable from x *)
              | Some dx ->
                  let via =
                    List.filter
                      (fun y ->
                        match Hashtbl.find_opt dist y with
                        | Some dy -> dy = dx - 1
                        | None -> false)
                      (neighbours t x)
                  in
                  List.map (fun d -> (x, d, via)) hosts_here)
          alive)
    alive

let star ~n =
  make ~switches:[ "switch" ] ~trunks:[]
    ~hosts:(Array.make n "switch")
    ()

let leaf_spine ~racks ~per_rack ~spines () =
  if racks <= 0 then invalid_arg "Topology.leaf_spine: racks <= 0";
  if per_rack <= 0 then invalid_arg "Topology.leaf_spine: per_rack <= 0";
  if spines <= 0 then invalid_arg "Topology.leaf_spine: spines <= 0";
  let tor r = Printf.sprintf "tor%d." r in
  let spine s = Printf.sprintf "spine%d." s in
  let switches = List.init racks tor @ List.init spines spine in
  let trunks =
    List.concat
      (List.init racks (fun r ->
           List.init spines (fun s -> (tor r, spine s))))
  in
  let hosts =
    Array.init (racks * per_rack) (fun id -> tor (id / per_rack))
  in
  make ~switches ~trunks ~hosts ()
