open Engine

type region = User_memory | Kernel_memory
type fragment = { region : region; bytes : int }
type t = { sk_id : int; header_bytes : int; fragments : fragment list }

let next_id = ref 0

let create ~header_bytes fragments =
  if header_bytes < 0 then invalid_arg "Skbuff.create: negative header";
  List.iter
    (fun f -> if f.bytes < 0 then invalid_arg "Skbuff.create: negative frag")
    fragments;
  let sk_id = !next_id in
  incr next_id;
  let t = { sk_id; header_bytes; fragments } in
  if !Probe.on then begin
    let owner =
      if List.exists (fun f -> f.region = User_memory) fragments then
        Probe.App
      else Probe.Channel
    in
    let bytes = List.fold_left (fun acc f -> acc + f.bytes) 0 fragments in
    Probe.emit
      (Probe.Obj_alloc
         { kind = Probe.Skb; id = sk_id; bytes; owner; where = "skbuff:create" })
  end;
  t

let of_user ~header_bytes n =
  create ~header_bytes [ { region = User_memory; bytes = n } ]

let of_kernel ~header_bytes n =
  create ~header_bytes [ { region = Kernel_memory; bytes = n } ]

(* Ownership transitions and the final release only feed the lifecycle
   sanitizer; they are free when no probe sink is installed. *)
let transfer t owner ~where =
  if !Probe.on then
    Probe.emit (Probe.Obj_transfer { kind = Probe.Skb; id = t.sk_id; owner; where })

let release t ~where =
  if !Probe.on then
    Probe.emit (Probe.Obj_free { kind = Probe.Skb; id = t.sk_id; where })

let data_bytes t = List.fold_left (fun acc f -> acc + f.bytes) 0 t.fragments
let total_bytes t = t.header_bytes + data_bytes t

let user_bytes t =
  List.fold_left
    (fun acc f -> match f.region with User_memory -> acc + f.bytes
                                    | Kernel_memory -> acc)
    0 t.fragments

let is_zero_copy t =
  List.for_all (fun f -> f.region = User_memory || f.bytes = 0) t.fragments
