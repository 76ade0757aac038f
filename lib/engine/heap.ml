(* Entries carry an explicit monotone insertion stamp so that FIFO
   tie-breaking among cmp-equal elements is guaranteed by the comparator
   itself, not by the accident of sift order.

   Entries are mutable and pooled: [pop] clears the popped entry back to
   the heap's dummy and parks it in the vacated tail slot, and [push]
   reuses whatever record sits there.  In a steady push/pop regime the
   heap therefore allocates no entry records — and, as a corollary, a
   popped element is never retained by the heap's array (the old
   implementation leaked the final element after the pop that emptied the
   heap). *)
type 'a entry = { mutable item : 'a; mutable stamp : int }

type 'a t = {
  cmp : 'a -> 'a -> int;
  dummy : 'a entry; (* placeholder filling slots >= size; item is junk *)
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_stamp : int;
}

(* The caller supplies a throwaway [dummy] element to fill unused slots;
   it is never read or compared, only stored.  An honest value of ['a]
   keeps the heap free of unsafe casts (an [Obj.magic 0] stand-in used to
   live here and needed GC-representation caveats to justify). *)
let create ~dummy ~cmp =
  { cmp; dummy = { item = dummy; stamp = -1 }; data = [||]; size = 0;
    next_stamp = 0 }

let length h = h.size
let is_empty h = h.size = 0

let[@clic.hot] entry_cmp h a b =
  let c = h.cmp a.item b.item in
  if c <> 0 then c else compare a.stamp b.stamp

let grow h =
  let cap = Array.length h.data in
  if h.size >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap h.dummy in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Standard sift-up: bubble the element at [i] towards the root while it is
   smaller than its parent. *)
let[@clic.hot] rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_cmp h h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let[@clic.hot] rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && entry_cmp h h.data.(l) h.data.(!smallest) < 0 then
    smallest := l;
  if r < h.size && entry_cmp h h.data.(r) h.data.(!smallest) < 0 then
    smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let[@clic.hot] push h x =
  grow h;
  (* Reuse the parked record at the insertion slot when one is there
     (left behind by an earlier pop); the dummy itself is shared across
     slots and must not be mutated. *)
  let slot = h.data.(h.size) in
  let e =
    if slot != h.dummy then begin
      slot.item <- x;
      slot.stamp <- h.next_stamp;
      slot
    end
    else
      ({ item = x; stamp = h.next_stamp }
      [@clic.alloc_ok
        "first occupancy of a fresh slot only; steady push/pop reuses the \
         parked record"])
  in
  h.next_stamp <- h.next_stamp + 1;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0).item

let pop_entry h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    let x = top.item in
    let stamp = top.stamp in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      (* Clear and park the popped record for reuse by the next push.
         Unconditional: the pop that empties the heap must also drop its
         reference to the element (the old guard here leaked it). *)
      top.item <- h.dummy.item;
      top.stamp <- -1;
      h.data.(h.size) <- top;
      sift_down h 0
    end
    else begin
      top.item <- h.dummy.item;
      top.stamp <- -1;
      h.data.(0) <- top
    end;
    Some (x, stamp)
  end

let pop h = match pop_entry h with None -> None | Some (x, _) -> Some x

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let to_sorted_list h =
  let copy =
    {
      cmp = h.cmp;
      dummy = h.dummy;
      data = Array.init h.size (fun i ->
          let e = h.data.(i) in
          { item = e.item; stamp = e.stamp });
      size = h.size;
      next_stamp = h.next_stamp;
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
