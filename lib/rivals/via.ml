open Engine
open Os_model
open Hw
open Proto

let ethertype = 0x8876
let descriptor_cost = Time.us 0.3
let doorbell_bytes = 8
let poll_cost = Time.us 0.4
let poll_interval = Time.us 0.1
let completion_write = Time.us 0.3
let header_bytes = 4

let driver_params =
  {
    Driver.default_params with
    Driver.tx_routine = Time.us 0.;
    isr_entry = Time.us 0.;
    isr_per_packet = Time.us 0.;
    bh_per_packet = Time.us 0.;
    bh_bytes_per_s = 1e12;
    rx_mode = Driver.Direct_from_isr;
  }

type completion = { vi_src : int; vi_bytes : int }

type Eth_frame.payload += Via of { v_src : int; v_bytes : int }

type t = {
  env : Hostenv.t;
  eth : Ethernet.t;
  completions : completion Queue.t;
  mutable polls : int;
}

let cpu t = t.env.Hostenv.cpu

(* The NIC writes the data and a completion entry straight into the VI's
   user-memory queues; no interrupt, no kernel processing.  (The tiny
   completion_write models the entry's memory write.) *)
let rx t (desc : Nic.rx_desc) =
  match desc.Nic.rx_frame.Eth_frame.payload with
  | Via { v_src; v_bytes } ->
      Cpu.work ~priority:`High (cpu t) completion_write;
      Queue.add { vi_src = v_src; vi_bytes = v_bytes } t.completions
  | _ -> ()

let create env eth =
  let t = { env; eth; completions = Queue.create (); polls = 0 } in
  Ethernet.register eth ~ethertype (rx t);
  t

(* Each descriptor carries at most one MTU of data; a library above VIA
   segments larger transfers (and would also have to add reliability). *)
let send t ~dst n =
  if n < 0 then invalid_arg "Via.send: negative size";
  let driver = (Ethernet.env t.eth).Hostenv.driver in
  let nic = Driver.nic driver in
  let chunk = Nic.mtu nic - header_bytes in
  let count = max 1 ((n + chunk - 1) / chunk) in
  for index = 0 to count - 1 do
    let bytes = if index = count - 1 then n - (index * chunk) else chunk in
    (* descriptor build in user space, then one PIO doorbell write *)
    Cpu.work (cpu t) descriptor_cost;
    Resource.use_f (Cpu.resource (cpu t)) (fun () ->
        Bus.transfer (Nic.pci nic) doorbell_bytes);
    let frame =
      Eth_frame.make ~src:(Mac.of_node t.env.Hostenv.node)
        ~dst:(Mac.of_node dst) ~ethertype
        ~payload_bytes:(header_bytes + bytes)
        (Via { v_src = t.env.Hostenv.node; v_bytes = bytes })
    in
    Nic.post_tx_blocking nic
      { Nic.frame; needs_dma = true; internal_copy = false;
        on_complete = (fun () -> ()) }
  done

let recv t =
  let rec poll () =
    t.polls <- t.polls + 1;
    Cpu.work (cpu t) poll_cost;
    match Queue.take_opt t.completions with
    | Some c -> c
    | None ->
        Process.delay poll_interval;
        poll ()
  in
  poll ()

let polls t = t.polls
