open Effect
open Effect.Deep

type _ Effect.t +=
  | Delay : Time.span -> unit Effect.t
  | Await : (('a -> unit) -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t

let delay d = perform (Delay d)
let await register = perform (Await register)
let fork f = perform (Fork f)

(* Each [spawn]ed process runs its whole body under a single deep handler,
   so effects performed after any number of suspensions are still handled.
   Continuations are one-shot: every resume path goes through a
   [once]-guarded closure. *)
let spawn sim ?(delay = 0) f =
  let rec exec : (unit -> unit) -> unit =
   fun body ->
    match_with body ()
      {
        retc = (fun () -> ());
        exnc =
          (fun exn ->
            Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ()));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Sim.post sim ~after:d (fun () -> continue k ()))
            | Await register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let fired = ref false in
                    let resume v =
                      if !fired then
                        invalid_arg "Process.await: resume called twice";
                      fired := true;
                      continue k v
                    in
                    register resume)
            | Fork g ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Sim.post sim ~after:0 (fun () -> exec g);
                    continue k ())
            | _ -> None);
      }
  in
  Sim.post sim ~after:delay (fun () -> exec f)
