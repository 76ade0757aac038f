(* The determinism / race detector's trace hash.

   A scenario is re-run with seeded permutations of same-timestamp event
   ordering ({!Engine.Sim.set_default_tie_break}); a hidden ordering race
   is a run whose *logical* protocol behaviour changes.  The hash is
   built to be invariant under everything a tie-break permutation may
   legitimately change, and sensitive to everything it must not:

   - Only protocol-visible outcomes are hashed: the delivery sequence out
     of each channel, the message stream reaching each node's application
     layer, and channel deaths.  A duplicate, gap, reordering, or a
     different set of delivered messages changes the hash.

   - Each stream is hashed as its own chain, keyed by the endpoints
     (process-global uids and wall-clock timestamps are excluded: id
     allocation order and contention timing legitimately vary with the
     permutation).  Cross-stream interleaving and acknowledgement timing
     are not part of the hash — they are covered by the invariant
     monitors, which run under every seeded permutation as well.

   - An application delivery is named by its place in its own flow, not
     by the sender's node-global message id: the matching [Msg_send]
     gives its ordinal among the (src, dst, port, epoch) flow's sends and
     its size.  How a node's flows interleaved in its id counter is
     cross-stream interleaving too.  A delivery with no recorded send (a
     CLIC broadcast, a same-node message) keeps its raw id. *)

open Engine

type t = {
  streams : (string, string) Hashtbl.t;  (* stream key -> chain head *)
  flows : (int * int * int * int, int) Hashtbl.t;
      (* (src, dst, port, epoch) -> sends so far *)
  sends : (int * int * int, int * int) Hashtbl.t;
      (* (src, epoch, msg_id) -> (ordinal in its flow, bytes) *)
  chan_index : (int, string) Hashtbl.t;  (* channel uid -> stable stream key *)
  chan_count : (string, int) Hashtbl.t;  (* endpoint base -> channels seen *)
  mutable sim_index : int;  (* scenarios run several simulations in order *)
}

let create () =
  {
    streams = Hashtbl.create 64;
    flows = Hashtbl.create 64;
    sends = Hashtbl.create 64;
    chan_index = Hashtbl.create 64;
    chan_count = Hashtbl.create 64;
    sim_index = 0;
  }

let fold t key item =
  let prev = Option.value (Hashtbl.find_opt t.streams key) ~default:"init" in
  Hashtbl.replace t.streams key
    (Digest.to_hex (Digest.string (prev ^ "|" ^ item)))

(* Channels are identified by endpoints plus order of first activity on
   those endpoints, not by their process-global uid.  The count is per
   exact base: a prefix test would count peer 23's channels as peer 2's. *)
let chan_key t ~chan ~node ~peer =
  match Hashtbl.find_opt t.chan_index chan with
  | Some key -> key
  | None ->
      let base = Printf.sprintf "%d/chan %d<-%d" t.sim_index node peer in
      let occurrence =
        Option.value (Hashtbl.find_opt t.chan_count base) ~default:0
      in
      Hashtbl.replace t.chan_count base (occurrence + 1);
      let key = Printf.sprintf "%s#%d" base occurrence in
      Hashtbl.add t.chan_index chan key;
      key

let on_event t (ev : Probe.event) =
  match ev with
  | Probe.Sim_start ->
      (* message ids restart with each simulation's nodes *)
      t.sim_index <- t.sim_index + 1;
      Hashtbl.reset t.flows;
      Hashtbl.reset t.sends
  | Probe.Msg_send { node; dst; port; msg_id; bytes; epoch } ->
      let flow = (node, dst, port, epoch) in
      let n = Option.value (Hashtbl.find_opt t.flows flow) ~default:0 in
      Hashtbl.replace t.flows flow (n + 1);
      Hashtbl.replace t.sends (node, epoch, msg_id) (n, bytes)
  | Probe.Msg_deliver { node; src; port; msg_id; epoch } ->
      fold t
        (Printf.sprintf "%d/msg %d<-%d port %d" t.sim_index node src port)
        (match Hashtbl.find_opt t.sends (src, epoch, msg_id) with
        | Some (n, bytes) -> Printf.sprintf "n=%d bytes=%d ep=%d" n bytes epoch
        | None -> Printf.sprintf "port=%d id=%d ep=%d" port msg_id epoch)
  | Probe.Chan_deliver { chan; node; peer; seq } ->
      fold t (chan_key t ~chan ~node ~peer) (Printf.sprintf "seq=%d" seq)
  | Probe.Chan_dead { chan; node; peer } ->
      fold t (chan_key t ~chan ~node ~peer) "dead"
  | _ -> ()

(* Folds the per-stream chain heads, in canonical key order, into one
   value. *)
let result t =
  Hashtbl.fold (fun key d acc -> (key, d) :: acc) t.streams []
  |> List.sort compare
  |> List.map (fun (key, d) -> key ^ "=" ^ d)
  |> String.concat "\n"
  |> Digest.string
  |> Digest.to_hex
