type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound <= 0";
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  let u = ref (float t 1.0) in
  if !u = 0. then u := 1e-300;
  -.mean *. log !u

let pareto t ~shape ~scale =
  if shape <= 0. then invalid_arg "Rng.pareto: shape <= 0";
  if scale <= 0. then invalid_arg "Rng.pareto: scale <= 0";
  let u = ref (float t 1.0) in
  if !u = 0. then u := 1e-300;
  scale *. (!u ** (-1. /. shape))
