open Effect
open Effect.Deep

type _ Effect.t +=
  | Delay : unit Effect.t
  | Wait : unit Effect.t
  | Await : (('a -> unit) -> unit) -> 'a Effect.t

(* The operands of [Delay] and [Wait].  Each is written just before its
   perform and read by the handler before anything else runs: perform
   hands control to the handler synchronously, so no other process can
   overwrite it in between, and one slot of each serves every process of
   the (single-domain) program.  Neither effect then carries a payload,
   and the handler for each is one preallocated [Some]. *)
let delay_span = ref 0
let wait_queue : (unit -> unit) Queue.t ref = ref (Queue.create ())

let delay d =
  delay_span := d;
  perform Delay

let wait_in q =
  wait_queue := q;
  perform Wait

let await register = perform (Await register)

let on_delay =
  Some
    (fun k ->
      Sim.post (Sim.running ()) ~after:!delay_span (fun () -> continue k ()))

let on_wait = Some (fun k -> Queue.add (fun () -> continue k ()) !wait_queue)

(* One handler value serves every process, so starting one allocates no
   handler record.  Each process runs its whole body under it (a deep
   handler), so effects performed after any number of suspensions are
   still handled.  Continuations are one-shot: a second [continue] of
   the same one raises [Effect.Continuation_already_resumed], and
   [await]'s resume adds its own [Invalid_argument] guard. *)
let handler =
  {
    retc = (fun () -> ());
    exnc =
      (fun exn ->
        Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Delay -> on_delay
        | Wait -> on_wait
        | Await register ->
            Some
              (fun k ->
                let fired = ref false in
                register (fun v ->
                    if !fired then
                      invalid_arg "Process.await: resume called twice";
                    fired := true;
                    continue k v))
        | _ -> None);
  }

let spawn sim ?(delay = 0) f =
  Sim.post sim ~after:delay (fun () -> match_with f () handler)

let fork f = spawn (Sim.running ()) f
