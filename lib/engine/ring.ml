(* [cells] holds the elements and, in its last cell, the fill value: its
   length is the capacity plus one, and the capacity is 0 or a power of
   two.  A ring made by [empty] has no array until its first push, whose
   element becomes the fill. *)
type 'a t = {
  mutable cells : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable length : int;
}

let create fill = { cells = [| fill |]; head = 0; length = 0 }
let empty () = { cells = [||]; head = 0; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

(* Doubles the capacity, moving the elements to the front in FIFO order. *)
let grow t x =
  let n = Array.length t.cells - 1 in
  let fill = if n < 0 then x else t.cells.(n) in
  let cells = Array.make (if n <= 0 then 9 else (2 * n) + 1) fill in
  if t.length > 0 then begin
    let first = min t.length (n - t.head) in
    Array.blit t.cells t.head cells 0 first;
    Array.blit t.cells 0 cells first (t.length - first)
  end;
  t.cells <- cells;
  t.head <- 0

let[@clic.hot] push t x =
  if t.length >= Array.length t.cells - 1 then grow t x;
  t.cells.((t.head + t.length) land (Array.length t.cells - 2)) <- x;
  t.length <- t.length + 1

(* The vacated cell gets the fill value: a ring that kept the popped
   element would keep a drained frame, and its payload, alive until the
   cell is reused. *)
let[@clic.hot] pop t =
  if t.length = 0 then invalid_arg "Ring.pop: empty ring";
  let cells = t.cells in
  let fill = Array.length cells - 1 in
  let x = cells.(t.head) in
  cells.(t.head) <- cells.(fill);
  t.head <- (t.head + 1) land (fill - 1);
  t.length <- t.length - 1;
  x
