type waiter = { need : int; resume : unit -> unit }
type t = { id : int; mutable permits : int; queue : waiter Queue.t }

let next_id = ref 0

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative permits";
  let id = !next_id in
  incr next_id;
  if !Probe.on then Probe.emit (Probe.Sem_create { id; permits = n });
  { id; permits = n; queue = Queue.create () }

let rec drain t =
  match Queue.peek_opt t.queue with
  | Some w when w.need <= t.permits ->
      ignore (Queue.pop t.queue);
      t.permits <- t.permits - w.need;
      if !Probe.on then
        Probe.emit
          (Probe.Sem_acquire { id = t.id; n = w.need; permits = t.permits });
      w.resume ();
      drain t
  | Some _ | None -> ()

let release ?(n = 1) t =
  if n < 0 then invalid_arg "Semaphore.release: negative count";
  t.permits <- t.permits + n;
  if !Probe.on then
    Probe.emit (Probe.Sem_release { id = t.id; n; permits = t.permits });
  drain t

let try_acquire ?(n = 1) t =
  if Queue.is_empty t.queue && t.permits >= n then begin
    t.permits <- t.permits - n;
    if !Probe.on then
      Probe.emit (Probe.Sem_acquire { id = t.id; n; permits = t.permits });
    true
  end
  else false

let acquire ?(n = 1) t =
  if not (try_acquire ~n t) then
    Process.await (fun resume -> Queue.add { need = n; resume } t.queue)

let available t = t.permits
let waiters t = Queue.length t.queue
