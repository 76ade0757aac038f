open Engine
open Hw

type t = {
  sim : Sim.t;
  switches : Switch.t list;
  nodes : Node.t array;
  config : Node.config;
  topo : Topology.t;
  fabric : (string * Switch.t) list list;  (* per NIC rank, prefix-keyed *)
  mutable failed : string list;  (* downed switch prefixes *)
}

(* Apply the topology's static routing table to every rank's switches,
   excluding currently-failed ones.  [via] prefixes become physical trunk
   labels by appending the rank suffix, mirroring the switch names. *)
let compile_routes ~topo ~failed fabric =
  List.iteri
    (fun rank instances ->
      List.iter (fun (_, sw) -> Switch.clear_routes sw) instances;
      List.iter
        (fun (at, dst, via) ->
          let sw = List.assoc at instances in
          let via = List.map (fun p -> p ^ string_of_int rank) via in
          Switch.set_route sw ~dst ~via)
        (Topology.routes ~excluding:failed topo))
    fabric

let create_topo ?(config = Node.default_config) ~topo () =
  let n = Topology.n topo in
  let sim = Sim.create () in
  let fabric =
    List.init config.Node.nics (fun rank ->
        let instances =
          List.map
            (fun prefix ->
              let sw =
                Switch.create sim
                  ~name:(prefix ^ string_of_int rank)
                  ~bits_per_s:config.Node.link_bits_per_s
                  ?fault:config.Node.link_fault
                  ?egress_frames:config.Node.switch_egress_frames
                  ?ingress_frames:config.Node.switch_ingress_frames
                  ?buffer:config.Node.switch_buffer
                  ~learning:(Topology.learning topo) ~ttl:(Topology.ttl topo)
                  ()
              in
              (prefix, sw))
            (Topology.switches topo)
        in
        for id = 0 to n - 1 do
          Switch.add_port (List.assoc (Topology.attach topo id) instances)
            ~node:id
        done;
        List.iter
          (fun (a, b) ->
            Switch.add_trunk (List.assoc a instances) (List.assoc b instances))
          (Topology.trunks topo);
        instances)
  in
  if not (Topology.learning topo) then compile_routes ~topo ~failed:[] fabric;
  let nodes =
    Array.init n (fun id ->
        (* Each node is handed its own attach switch per NIC rank, so the
           crash/reboot rewire path lands on the right ToR in any fabric. *)
        let switches =
          List.map
            (fun instances -> List.assoc (Topology.attach topo id) instances)
            fabric
        in
        Node.create sim ~id ~switches config)
  in
  let switches = List.concat_map (List.map snd) fabric in
  { sim; switches; nodes; config; topo; fabric; failed = [] }

let create ?config ~n () =
  if n <= 0 then invalid_arg "Cluster.create: n <= 0";
  create_topo ?config ~topo:(Topology.star ~n) ()

let switch t ?(rank = 0) prefix =
  match List.nth_opt t.fabric rank with
  | None -> invalid_arg (Printf.sprintf "Net.switch: no NIC rank %d" rank)
  | Some instances -> (
      match List.assoc_opt prefix instances with
      | Some sw -> sw
      | None -> invalid_arg (Printf.sprintf "Net.switch: unknown %s" prefix))

let set_failed t prefix flag =
  (match List.assoc_opt prefix (List.hd t.fabric) with
  | Some _ -> ()
  | None -> invalid_arg (Printf.sprintf "Net: unknown switch %s" prefix));
  let now_failed =
    if flag then if List.mem prefix t.failed then t.failed else t.failed @ [ prefix ]
    else List.filter (fun p -> p <> prefix) t.failed
  in
  t.failed <- now_failed;
  List.iter
    (fun instances -> Switch.set_down (List.assoc prefix instances) flag)
    t.fabric;
  if not (Topology.learning t.topo) then
    compile_routes ~topo:t.topo ~failed:t.failed t.fabric

let fail_switch t prefix = set_failed t prefix true
let restore_switch t prefix = set_failed t prefix false
let failed_switches t = t.failed
let node t i = t.nodes.(i)
let size t = Array.length t.nodes
let run t = Sim.run t.sim
let run_for t span = Sim.run_until t.sim ~limit:(Time.add (Sim.now t.sim) span)
