type t = {
  sim : Sim.t;
  res : Resource.t;
  name : string;
  effective_bps : float;
  setup : Time.span;
  mutable bytes : int;
}

let create sim ~name ~bytes_per_s ?(efficiency = 1.0) ?(setup = 0) () =
  if bytes_per_s <= 0. then invalid_arg "Bus.create: bandwidth <= 0";
  if efficiency <= 0. || efficiency > 1. then
    invalid_arg "Bus.create: efficiency outside (0,1]";
  if setup < 0 then invalid_arg "Bus.create: negative setup";
  {
    sim;
    res = Resource.create sim ~name;
    name;
    effective_bps = bytes_per_s *. efficiency;
    setup;
    bytes = 0;
  }

let name t = t.name
let sim t = t.sim

let transfer_time t n =
  if n < 0 then invalid_arg "Bus.transfer_time: negative size";
  t.setup + Time.of_bytes_at_rate ~bytes_per_s:t.effective_bps n

let transfer ?priority t n =
  let span = transfer_time t n in
  t.bytes <- t.bytes + n;
  Resource.use ?priority t.res span

let bytes_moved t = t.bytes
