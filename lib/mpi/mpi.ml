open Engine
open Os_model

type envelope = {
  e_src : int;
  e_tag : int;
  e_bytes : int;
  e_kind : kind;
}

and kind = Eager | Rts of int | Cts of int | Rendez_data of int

let envelope_bytes = 32

type transport = {
  t_xmit : dst:int -> envelope -> unit;
  t_start : deliver:(envelope -> unit) -> unit;
}

(* Messages above this many bytes use rendezvous. *)
let eager_threshold = 16384

(* The library's own overhead per send/recv call. *)
let per_call = Time.us 3.

type posted = {
  want_src : int option;
  want_tag : int option;
  result : envelope Ivar.t;
}

type t = {
  env : Proto.Hostenv.t;
  rank : int;
  transport : transport;
  mutable posted : posted list;  (* FIFO order *)
  unexpected : envelope Queue.t;
  pending_cts : (int, unit Ivar.t) Hashtbl.t;  (* sender side, by rendezvous id *)
  pending_data : (int, envelope Ivar.t) Hashtbl.t;  (* receiver side *)
  mutable next_rendez : int;
  mutable sends : int;
  mutable receives : int;
}

let cpu t = t.env.Proto.Hostenv.cpu

let matches p (env : envelope) =
  (match p.want_src with None -> true | Some s -> s = env.e_src)
  && match p.want_tag with None -> true | Some g -> g = env.e_tag

(* Remove and return the first posted receive matching the envelope. *)
let take_posted t env =
  let rec go acc = function
    | [] -> None
    | p :: rest when matches p env ->
        t.posted <- List.rev_append acc rest;
        Some p
    | p :: rest -> go (p :: acc) rest
  in
  go [] t.posted

let send_cts t ~dst id =
  t.transport.t_xmit ~dst
    { e_src = t.rank; e_tag = 0; e_bytes = 0; e_kind = Cts id }

(* Runs in the progress process of the receiving rank. *)
let deliver t (env : envelope) =
  match env.e_kind with
  | Cts id -> (
      match Hashtbl.find_opt t.pending_cts id with
      | Some iv ->
          Hashtbl.remove t.pending_cts id;
          Ivar.fill iv ()
      | None -> ())
  | Rendez_data id -> (
      match Hashtbl.find_opt t.pending_data id with
      | Some iv ->
          Hashtbl.remove t.pending_data id;
          Ivar.fill iv env
      | None -> Queue.add env t.unexpected)
  | Eager -> (
      match take_posted t env with
      | Some p -> Ivar.fill p.result env
      | None -> Queue.add env t.unexpected)
  | Rts id -> (
      match take_posted t env with
      | Some p ->
          Hashtbl.replace t.pending_data id p.result;
          send_cts t ~dst:env.e_src id
      | None -> Queue.add env t.unexpected)

let create hostenv ~rank transport =
  let t =
    {
      env = hostenv;
      rank;
      transport;
      posted = [];
      unexpected = Queue.create ();
      pending_cts = Hashtbl.create 8;
      pending_data = Hashtbl.create 8;
      next_rendez = 0;
      sends = 0;
      receives = 0;
    }
  in
  (* Each envelope is handled in its own short-lived process: delivery
     resumes application continuations (Ivar fills run waiters inline), and
     the application may immediately block again — that must never stall
     the transport's reader/progress process.  Same-instant spawns run
     FIFO, so per-pair ordering is preserved. *)
  transport.t_start ~deliver:(fun envl ->
      Process.spawn hostenv.Proto.Hostenv.sim (fun () -> deliver t envl));
  t

let send t ~dst ~tag n =
  if n < 0 then invalid_arg "Mpi.send: negative size";
  t.sends <- t.sends + 1;
  Cpu.work (cpu t) per_call;
  if n <= eager_threshold then
    t.transport.t_xmit ~dst
      { e_src = t.rank; e_tag = tag; e_bytes = n; e_kind = Eager }
  else begin
    let id = (t.rank * 1_000_000) + t.next_rendez in
    t.next_rendez <- t.next_rendez + 1;
    let cts = Ivar.create () in
    Hashtbl.replace t.pending_cts id cts;
    t.transport.t_xmit ~dst
      { e_src = t.rank; e_tag = tag; e_bytes = n; e_kind = Rts id };
    Ivar.read cts;
    t.transport.t_xmit ~dst
      { e_src = t.rank; e_tag = tag; e_bytes = n; e_kind = Rendez_data id }
  end

let find_unexpected t ~src ~tag =
  let want = { want_src = src; want_tag = tag; result = Ivar.create () } in
  let found = ref None in
  let keep = Queue.create () in
  Queue.iter
    (fun env ->
      if !found = None && matches want env then found := Some env
      else Queue.add env keep)
    t.unexpected;
  Queue.clear t.unexpected;
  Queue.transfer keep t.unexpected;
  !found

let recv t ?src ?tag () =
  t.receives <- t.receives + 1;
  Cpu.work (cpu t) per_call;
  let finish (env : envelope) =
    match env.e_kind with
    | Eager | Rendez_data _ ->
        (* An eager message that arrived before the receive was posted sat
           in a bounce buffer; pay the extra copy MPI implementations pay. *)
        if env.e_bytes > 0 then
          Cpu.copy (cpu t) ~membus:t.env.Proto.Hostenv.membus env.e_bytes;
        env
    | Rts _ | Cts _ -> assert false
  in
  match find_unexpected t ~src ~tag with
  | Some ({ e_kind = Eager; _ } as env) -> finish env
  | Some ({ e_kind = Rts id; _ } as env) ->
      let iv = Ivar.create () in
      Hashtbl.replace t.pending_data id iv;
      send_cts t ~dst:env.e_src id;
      Ivar.read iv
  | Some env -> finish env
  | None ->
      let result = Ivar.create () in
      t.posted <- t.posted @ [ { want_src = src; want_tag = tag; result } ];
      Ivar.read result

(* ------------------------------------------------------------------ *)
(* Non-blocking receive: the blocking call runs in its own process and
   completion is signalled through an ivar. *)

type request = envelope Ivar.t

let irecv t ?src ?tag () =
  let req = Ivar.create () in
  Process.fork (fun () -> Ivar.fill req (recv t ?src ?tag ()));
  req

let wait = Ivar.read

let unexpected_queued t = Queue.length t.unexpected
let sends t = t.sends
let receives t = t.receives
