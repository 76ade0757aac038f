open Engine
open Os_model
open Hw

type job = {
  dst : Mac.t;
  ethertype : int;
  skb : Skbuff.t;
  payload : Eth_frame.payload;
  on_complete : unit -> unit;
}

type t = {
  env : Hostenv.t;
  slots : Semaphore.t;
  jobs : job Mailbox.t;
  handlers : (int, Nic.rx_desc -> unit) Hashtbl.t;
  mutable unhandled : int;
}

(* Transmit pump: one frame at a time from the device queue into the
   driver.  [transmit] returns false when the NIC ring is full; the pump
   then waits for ring space by re-posting through the blocking NIC entry
   point after charging the (single) driver-routine cost. *)
let pump t () =
  let driver = t.env.Hostenv.driver in
  let src = Hostenv.mac t.env in
  let rec loop () =
    let job = Mailbox.recv t.jobs in
    (* The pump owns the buffer until transmit completion: release it to
       the lifecycle sanitizer exactly when the NIC reports the frame has
       left, whichever posting path carried it. *)
    let on_complete () =
      Skbuff.release job.skb ~where:"eth:tx-complete";
      job.on_complete ()
    in
    let posted =
      Driver.transmit driver ~skb:job.skb ~dst:job.dst ~src
        ~ethertype:job.ethertype ~payload:job.payload ~on_complete ()
    in
    if not posted then begin
      let frame =
        Eth_frame.make ~src ~dst:job.dst ~ethertype:job.ethertype
          ~payload_bytes:(Skbuff.total_bytes job.skb)
          job.payload
      in
      Nic.post_tx_blocking (Driver.nic driver)
        { Nic.frame; needs_dma = true; internal_copy = true; on_complete }
    end;
    Semaphore.release t.slots;
    loop ()
  in
  loop ()

(* The device queue bound, in packets. *)
let txqueuelen = 100

let create env =
  let t =
    {
      env;
      slots = Semaphore.create txqueuelen;
      jobs = Mailbox.create ();
      handlers = Hashtbl.create 4;
      unhandled = 0;
    }
  in
  Driver.set_rx_upcall env.Hostenv.driver (fun desc ->
      let ethertype = desc.Nic.rx_frame.Eth_frame.ethertype in
      match Hashtbl.find_opt t.handlers ethertype with
      | Some handler -> handler desc
      | None -> t.unhandled <- t.unhandled + 1);
  Process.spawn env.Hostenv.sim (pump t);
  t

let register t ~ethertype handler =
  if Hashtbl.mem t.handlers ethertype then
    invalid_arg
      (Printf.sprintf "Ethernet.register: duplicate ethertype %#x" ethertype);
  Hashtbl.add t.handlers ethertype handler

let send t ~dst ~ethertype ~skb ~payload ?(on_complete = fun () -> ()) () =
  Semaphore.acquire t.slots;
  Mailbox.send t.jobs { dst; ethertype; skb; payload; on_complete }

let env t = t.env
let unhandled t = t.unhandled
