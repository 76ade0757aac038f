(* One fold over the cluster's counters, so experiment rows, contracts and
   the soak evidence all read the same sums. *)

open Hw
open Os_model

type t = {
  retransmissions : int;
  retx_bytes : int;
  retx_bytes_saved : int;
  timeouts : int;
  fast_retransmits : int;
  sacked_segments : int;
  ce_echoes : int;
  delivered : int;
  reestablishments : int;
  peer_reboots : int;
  stale_epoch_drops : int;
  acks_deferred : int;
  pool_drops : int;
  bad_fcs : int;
  tx_paused_ns : int;
  slow_extra_ns : int;
  poll_switches : int;
  polled : int;
  ingress_drops : int;
  egress_drops : int;
  switch_pause_tx : int;
  ecn_marks : int;
  trunk_frames : int;
  egress_stall_ns : int;
  peak_buffer : int;
  crashes : int;
}

let zero =
  {
    retransmissions = 0; retx_bytes = 0; retx_bytes_saved = 0; timeouts = 0;
    fast_retransmits = 0; sacked_segments = 0; ce_echoes = 0; delivered = 0;
    reestablishments = 0; peer_reboots = 0; stale_epoch_drops = 0;
    acks_deferred = 0; pool_drops = 0; bad_fcs = 0; tx_paused_ns = 0;
    slow_extra_ns = 0; poll_switches = 0; polled = 0; ingress_drops = 0;
    egress_drops = 0; switch_pause_tx = 0; ecn_marks = 0; trunk_frames = 0;
    egress_stall_ns = 0; peak_buffer = 0; crashes = 0;
  }

let add a b =
  {
    retransmissions = a.retransmissions + b.retransmissions;
    retx_bytes = a.retx_bytes + b.retx_bytes;
    retx_bytes_saved = a.retx_bytes_saved + b.retx_bytes_saved;
    timeouts = a.timeouts + b.timeouts;
    fast_retransmits = a.fast_retransmits + b.fast_retransmits;
    sacked_segments = a.sacked_segments + b.sacked_segments;
    ce_echoes = a.ce_echoes + b.ce_echoes;
    delivered = a.delivered + b.delivered;
    reestablishments = a.reestablishments + b.reestablishments;
    peer_reboots = a.peer_reboots + b.peer_reboots;
    stale_epoch_drops = a.stale_epoch_drops + b.stale_epoch_drops;
    acks_deferred = a.acks_deferred + b.acks_deferred;
    pool_drops = a.pool_drops + b.pool_drops;
    bad_fcs = a.bad_fcs + b.bad_fcs;
    tx_paused_ns = a.tx_paused_ns + b.tx_paused_ns;
    slow_extra_ns = a.slow_extra_ns + b.slow_extra_ns;
    poll_switches = a.poll_switches + b.poll_switches;
    polled = a.polled + b.polled;
    ingress_drops = a.ingress_drops + b.ingress_drops;
    egress_drops = a.egress_drops + b.egress_drops;
    switch_pause_tx = a.switch_pause_tx + b.switch_pause_tx;
    ecn_marks = a.ecn_marks + b.ecn_marks;
    trunk_frames = a.trunk_frames + b.trunk_frames;
    egress_stall_ns = a.egress_stall_ns + b.egress_stall_ns;
    peak_buffer = max a.peak_buffer b.peak_buffer;
    crashes = a.crashes + b.crashes;
  }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let boot (node : Node.t) =
  let k = Clic.Api.kernel node.Node.clic in
  let nics f = sum f node.Node.nics in
  let drivers f =
    sum (fun eth -> f (Proto.Ethernet.env eth).Proto.Hostenv.driver)
      node.Node.eths
  in
  {
    zero with
    retransmissions = Clic.Clic_module.retransmissions k;
    retx_bytes = Clic.Clic_module.retx_bytes k;
    retx_bytes_saved = Clic.Clic_module.retx_bytes_saved k;
    timeouts = Clic.Clic_module.timeouts k;
    fast_retransmits = Clic.Clic_module.fast_retransmits k;
    sacked_segments = Clic.Clic_module.sacked_segments k;
    ce_echoes = Clic.Clic_module.ce_echoes k;
    delivered = Clic.Clic_module.messages_delivered k;
    reestablishments = Clic.Clic_module.reestablishments k;
    peer_reboots = Clic.Clic_module.peer_reboots k;
    stale_epoch_drops = Clic.Clic_module.stale_epoch_drops k;
    acks_deferred = Clic.Clic_module.acks_deferred k;
    pool_drops = nics Nic.rx_dropped_mem;
    bad_fcs = nics Nic.bad_fcs;
    tx_paused_ns = nics Nic.tx_paused_ns;
    slow_extra_ns = nics Nic.slow_extra_ns;
    poll_switches = drivers Driver.poll_mode_switches;
    polled = drivers Driver.polled_packets;
  }

let switch sw =
  {
    zero with
    ingress_drops = Switch.ingress_drops sw;
    egress_drops = Switch.egress_drops sw;
    switch_pause_tx = Switch.pause_frames_tx sw;
    ecn_marks = Switch.ecn_marked sw;
    trunk_frames =
      sum (fun peer -> Switch.trunk_tx_frames sw ~peer) (Switch.trunks sw);
    egress_stall_ns = Switch.egress_stall_ns sw;
    peak_buffer = Switch.peak_buffer_occupied sw;
  }

let net (c : Net.t) =
  let nodes =
    Array.fold_left
      (fun acc node -> add acc { (boot node) with crashes = Node.crashes node })
      zero c.Net.nodes
  in
  List.fold_left (fun acc sw -> add acc (switch sw)) nodes c.Net.switches

let switch_drops t = t.ingress_drops + t.egress_drops
