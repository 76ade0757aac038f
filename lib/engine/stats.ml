module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean

  let stddev t =
    if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min t = if t.n = 0 then 0. else t.min_v
  let max t = if t.n = 0 then 0. else t.max_v
end

module Histogram = struct
  (* Bucket [i] holds values v with 2^(i-1) < v <= 2^i; bucket 0 holds 0. *)
  type t = { name : string; buckets : int array; mutable count : int }

  let nbuckets = 63

  let create name = { name; buckets = Array.make nbuckets 0; count = 0 }

  (* Smallest i >= 1 with 2^i >= v. *)
  let bucket_of v =
    if v <= 0 then 0
    else
      let rec go i acc = if acc >= v then i else go (i + 1) (acc * 2) in
      go 1 2

  let add t v =
    let i = Stdlib.min (bucket_of v) (nbuckets - 1) in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1

  let count t = t.count

  let upper_bound i = if i = 0 then 0 else 1 lsl i

  let percentile t p =
    if t.count = 0 then 0
    else begin
      let target = Float.ceil (p /. 100. *. float_of_int t.count) in
      let target = Stdlib.max 1 (int_of_float target) in
      let rec go i acc =
        if i >= nbuckets then upper_bound (nbuckets - 1)
        else
          let acc = acc + t.buckets.(i) in
          if acc >= target then upper_bound i else go (i + 1) acc
      in
      go 0 0
    end

  let buckets t =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.buckets.(i) > 0 then out := (upper_bound i, t.buckets.(i)) :: !out
    done;
    !out
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
