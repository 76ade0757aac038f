type 'a t = {
  fill : 'a;
  mutable cells : 'a array;  (* capacity 0 or a power of two *)
  mutable head : int;  (* index of the front element *)
  mutable length : int;
}

let create fill = { fill; cells = [||]; head = 0; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

(* Doubles the capacity, moving the elements to the front in FIFO order. *)
let grow t =
  let n = Array.length t.cells in
  let cells = Array.make (if n = 0 then 8 else 2 * n) t.fill in
  let first = min t.length (n - t.head) in
  Array.blit t.cells t.head cells 0 first;
  Array.blit t.cells 0 cells first (t.length - first);
  t.cells <- cells;
  t.head <- 0

let[@clic.hot] push t x =
  if t.length = Array.length t.cells then grow t;
  t.cells.((t.head + t.length) land (Array.length t.cells - 1)) <- x;
  t.length <- t.length + 1

(* The vacated cell gets the fill value: a ring that kept the popped
   element would keep a drained frame, and its payload, alive until the
   cell is reused. *)
let[@clic.hot] pop t =
  if t.length = 0 then invalid_arg "Ring.pop: empty ring";
  let x = t.cells.(t.head) in
  t.cells.(t.head) <- t.fill;
  t.head <- (t.head + 1) land (Array.length t.cells - 1);
  t.length <- t.length - 1;
  x
