(* A receiver blocks only on an empty [items], and a send to a mailbox
   with blocked receivers wakes the first at once, so [items] is empty
   whenever [blocked] is not. *)
type 'a t = { items : 'a Queue.t; blocked : Sim.waiter Ring.t }

let create () = { items = Queue.create (); blocked = Ring.empty () }

(* The woken receiver resumes inside this call and takes [v], the only
   item, before anything else can. *)
let send t v =
  Queue.add v t.items;
  if not (Ring.is_empty t.blocked) then Process.wake t.blocked

let try_recv t = Queue.take_opt t.items

let recv t =
  if Queue.is_empty t.items then Process.wait_in t.blocked;
  Queue.take t.items

let length t = Queue.length t.items
let waiters t = Ring.length t.blocked
