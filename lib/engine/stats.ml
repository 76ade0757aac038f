module Summary = struct
  (* Floats only, so OCaml stores the fields unboxed and [add] allocates
     nothing; the count is a float too, exact below 2^53. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { n = 0.; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.n <- t.n +. 1.;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = int_of_float t.n
  let mean t = if t.n = 0. then 0. else t.mean
  let stddev t = if t.n < 2. then 0. else sqrt (t.m2 /. (t.n -. 1.))
  let min t = if t.n = 0. then 0. else t.min_v
  let max t = if t.n = 0. then 0. else t.max_v
end

module Series = struct
  type t = { name : string; mutable rev_points : (float * float) list }

  let create ~name = { name; rev_points = [] }
  let name t = t.name
  let add t ~x ~y = t.rev_points <- (x, y) :: t.rev_points
  let points t = List.rev t.rev_points

  (* X coordinates often arrive through arithmetic (byte counts scaled to
     KB, sweep steps accumulated in floats), so exact float equality would
     miss points that printed identically; compare within a relative
     tolerance instead. *)
  let y_at t ~x =
    let tol = 1e-9 *. (1. +. Float.abs x) in
    List.find_map
      (fun (px, py) -> if Float.abs (px -. x) <= tol then Some py else None)
      (points t)

  let max_y t = List.fold_left (fun acc (_, y) -> Float.max acc y) 0. (points t)

  let interpolate t ~x =
    let pts = List.sort (fun (a, _) (b, _) -> compare a b) (points t) in
    let rec go = function
      | (x0, y0) :: _ when x0 = x -> Some y0
      | (x0, y0) :: (x1, y1) :: _ when x0 <= x && x <= x1 ->
          if x1 = x0 then Some y0
          else Some (y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0)))
      | _ :: rest -> go rest
      | [] -> None
    in
    go pts
end
