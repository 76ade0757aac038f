(* The effects, the shared handler and the parking of suspended
   processes live in {!Sim}, whose event loop starts process bodies and
   resumes their continuations. *)

let spawn sim ?(delay = 0) f = Sim.start sim ~after:delay f
let fork f = Sim.start (Sim.running ()) ~after:0 f
let delay = Sim.delay
let wait_in = Sim.wait_in
let wake ring = Effect.Deep.continue (Ring.pop ring) ()
let await = Sim.await
