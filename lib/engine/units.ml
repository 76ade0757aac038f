let kib n = n * 1024
let mbit_per_s x = x *. 1e6 /. 8.
let gbit_per_s x = x *. 1e9 /. 8.
let to_mbit_per_s ~bytes_per_s = bytes_per_s *. 8. /. 1e6

let bandwidth_mbps ~bytes ~span =
  if span <= 0 then 0.
  else to_mbit_per_s ~bytes_per_s:(float_of_int bytes /. Time.to_s span)
