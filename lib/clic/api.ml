open Engine
open Proto

type t = { m : Clic_module.t; syscall : Os_model.Syscall.t }

let create m =
  { m; syscall = (Clic_module.env_of m).Hostenv.syscall }

let kernel t = t.m
let wrap t f = Os_model.Syscall.wrap t.syscall f

let send t ~dst ~port n =
  wrap t (fun () ->
      Clic_module.send_message t.m ~dst ~port n ~sync_done:(fun () -> ()))

let send_sync t ~dst ~port n =
  let iv = Ivar.create () in
  wrap t (fun () ->
      Clic_module.send_message t.m ~dst ~port ~sync:true n
        ~sync_failed:(fun e -> Ivar.fill iv (Error e))
        ~sync_done:(fun () -> Ivar.fill iv (Ok ())));
  match Ivar.read iv with Ok () -> () | Error e -> raise e

let recv t ~port = wrap t (fun () -> Clic_module.recv_wait t.m ~port)
let try_recv t ~port = wrap t (fun () -> Clic_module.recv_poll t.m ~port)

let remote_write t ~dst ~region n =
  wrap t (fun () -> Clic_module.remote_write t.m ~dst ~region n)

let broadcast t ~port n =
  wrap t (fun () -> Clic_module.broadcast_message t.m ~port n)

let register_region t ~region notify =
  Clic_module.register_region t.m ~region notify

let region_bytes t ~region = Clic_module.region_bytes t.m ~region
