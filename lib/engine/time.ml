type t = int
type span = int

let zero = 0
let ns n = n

let check_finite label x =
  if Float.is_nan x || Float.abs x = Float.infinity then
    invalid_arg (Printf.sprintf "Time.%s: not finite" label)

let us x =
  check_finite "us" x;
  int_of_float (Float.round (x *. 1e3))

let ms x =
  check_finite "ms" x;
  int_of_float (Float.round (x *. 1e6))

let s x =
  check_finite "s" x;
  int_of_float (Float.round (x *. 1e9))

let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_s t = float_of_int t /. 1e9
let add t d = t + d
let diff a b = a - b
let mul d k = d * k

let of_bytes_at_rate ~bytes_per_s n =
  if bytes_per_s <= 0. then invalid_arg "Time.of_bytes_at_rate: rate <= 0";
  if n <= 0 then 0
  else int_of_float (Float.ceil (float_of_int n /. bytes_per_s *. 1e9))

let of_bits_at_rate ~bits_per_s n =
  if bits_per_s <= 0. then invalid_arg "Time.of_bits_at_rate: rate <= 0";
  if n <= 0 then 0
  else int_of_float (Float.ceil (float_of_int n /. bits_per_s *. 1e9))

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.4fs" (to_s t)

let pp_us fmt t = Format.fprintf fmt "%.2fus" (to_us t)
let to_string t = Format.asprintf "%a" pp t
