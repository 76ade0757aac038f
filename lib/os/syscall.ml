open Engine

type t = { cpu : Cpu.t; mutable calls : int }

let enter_cost = Time.us 0.35
let leave_cost = Time.us 0.30
let create cpu = { cpu; calls = 0 }

let enter t =
  t.calls <- t.calls + 1;
  Cpu.work t.cpu enter_cost

let leave t = Cpu.work t.cpu leave_cost

let wrap t f =
  enter t;
  match f () with
  | v ->
      leave t;
      v
  | exception exn ->
      leave t;
      raise exn

let round_trip = enter_cost + leave_cost
let calls t = t.calls
