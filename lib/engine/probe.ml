(* A process-global instrumentation hub.

   Simulation components emit typed events here; nothing listens by
   default, so the cost of an uninstalled probe is one flag test.  The
   analysis layer (lib/check) installs a sink around a scenario run and
   reconstructs object lifecycles, protocol invariants and determinism
   hashes from the stream. *)

type owner = App | Channel | Driver | Bh | Nic

type obj_kind = Skb | Rx_buffer

type track = Process | Isr | Bh_track | Module | Dma | Link | Pause_t | Busy

module Stage = struct
  type t =
    | Module_tx
    | Driver_tx
    | Isr
    | Bottom_half
    | Poll
    | Module_rx
    | Copy_to_user
    | Dma
    | Frame
    | Paused
    | Busy

  let name = function
    | Module_tx -> "clic:module-tx"
    | Driver_tx -> "driver:tx-routine"
    | Isr -> "driver:isr"
    | Bottom_half -> "driver:bottom-half"
    | Poll -> "driver:poll"
    | Module_rx -> "clic:module-rx"
    | Copy_to_user -> "clic:copy-to-user"
    | Dma -> "dma"
    | Frame -> "frame"
    | Paused -> "paused"
    | Busy -> "busy"

  let track : t -> track = function
    | Module_tx | Driver_tx -> Process
    | Isr -> Isr
    | Bottom_half | Poll -> Bh_track
    | Module_rx | Copy_to_user -> Module
    | Dma -> Dma
    | Frame -> Link
    | Paused -> Pause_t
    | Busy -> Busy
end

type event =
  | Sim_start
  | Clock of { now : int }
  | Span of {
      host : string;
      track : track;
      stage : Stage.t;
      start : int;
      finish : int;
    }
  | Sched_run of { host : string }
  | Sched_block of { host : string }
  | Irq of { host : string }
  | Queue_depth of { queue : string; depth : int }
  | Msg_send of {
      node : int;
      dst : int;
      port : int;
      msg_id : int;
      bytes : int;
      epoch : int;
    }
  | Obj_alloc of {
      kind : obj_kind;
      id : int;
      bytes : int;
      owner : owner;
      where : string;
    }
  | Obj_transfer of { kind : obj_kind; id : int; owner : owner; where : string }
  | Obj_free of { kind : obj_kind; id : int; where : string }
  | Pool_alloc of { pool : string; bytes : int; used : int; capacity : int }
  | Pool_free of { pool : string; bytes : int; used : int }
  | Ivar_fill of { id : int }
  | Sem_create of { id : int; permits : int }
  | Sem_acquire of { id : int; n : int; permits : int }
  | Sem_release of { id : int; n : int; permits : int }
  | Ack_tx of { chan : int; node : int; peer : int; cum_seq : int }
  | Ack_rx of { chan : int; node : int; peer : int; cum_seq : int }
  | Snd_una of { chan : int; node : int; peer : int; snd_una : int }
  | Window of {
      chan : int;
      node : int;
      peer : int;
      outstanding : int;
      limit : int;
    }
  | Chan_deliver of { chan : int; node : int; peer : int; seq : int }
  | Chan_dead of { chan : int; node : int; peer : int }
  | Msg_deliver of {
      node : int;
      src : int;
      port : int;
      msg_id : int;
      epoch : int;
    }
  | Msg_recv of { node : int; src : int; port : int; msg_id : int; epoch : int }
  | Rto_armed of {
      chan : int;
      node : int;
      peer : int;
      rto_ns : int;
      lo_ns : int;
      hi_ns : int;
    }
  | Rx_poll_mode of { host : string; polling : bool }
  | Poll_pass of { host : string; processed : int; budget : int }
  | Pool_pressure of { pool : string; level : int }
  | Tx_wire of { host : string }
  | Pause_state of { host : string; paused : bool }
  | Pause_frame of { host : string; sent : bool; quanta : int }
  | Switch_buffer of {
      switch : string;
      port : int;
      delta : int;
      occupied : int;
      total : int;
    }
  | Switch_drop of {
      switch : string;
      port : int;
      ingress : bool;
      protected : bool;
    }
  | Ecn_mark of { switch : string; port : int; occupied : int; threshold : int }
  | Sack_tx of { chan : int; node : int; peer : int; blocks : (int * int) list }
  | Sack_rx of { chan : int; node : int; peer : int; blocks : (int * int) list }
  | Chan_retx of { chan : int; node : int; peer : int; seq : int }
  | Gray_fault of { host : string; mode : string; active : bool }

(* The constructors of [event] as constants, with a dense index.  Both
   [Kind.index] and [kind] are total matches, so a new event constructor
   does not compile until it has a kind and an index. *)
module Kind = struct
  type t =
    | Sim_start | Clock | Span | Sched_run | Sched_block | Irq | Queue_depth
    | Msg_send | Obj_alloc | Obj_transfer | Obj_free | Pool_alloc
    | Pool_free | Ivar_fill | Sem_create | Sem_acquire | Sem_release
    | Ack_tx | Ack_rx | Snd_una | Window | Chan_deliver | Chan_dead
    | Msg_deliver | Msg_recv | Rto_armed | Rx_poll_mode | Poll_pass
    | Pool_pressure | Tx_wire | Pause_state | Pause_frame | Switch_buffer
    | Switch_drop | Ecn_mark | Sack_tx | Sack_rx | Chan_retx | Gray_fault

  let count = 39

  let index = function
    | Sim_start -> 0
    | Clock -> 1
    | Span -> 2
    | Sched_run -> 3
    | Sched_block -> 4
    | Irq -> 5
    | Queue_depth -> 6
    | Msg_send -> 7
    | Obj_alloc -> 8
    | Obj_transfer -> 9
    | Obj_free -> 10
    | Pool_alloc -> 11
    | Pool_free -> 12
    | Ivar_fill -> 13
    | Sem_create -> 14
    | Sem_acquire -> 15
    | Sem_release -> 16
    | Ack_tx -> 17
    | Ack_rx -> 18
    | Snd_una -> 19
    | Window -> 20
    | Chan_deliver -> 21
    | Chan_dead -> 22
    | Msg_deliver -> 23
    | Msg_recv -> 24
    | Rto_armed -> 25
    | Rx_poll_mode -> 26
    | Poll_pass -> 27
    | Pool_pressure -> 28
    | Tx_wire -> 29
    | Pause_state -> 30
    | Pause_frame -> 31
    | Switch_buffer -> 32
    | Switch_drop -> 33
    | Ecn_mark -> 34
    | Sack_tx -> 35
    | Sack_rx -> 36
    | Chan_retx -> 37
    | Gray_fault -> 38
end

let kind : event -> Kind.t = function
  | Sim_start -> Kind.Sim_start
  | Clock _ -> Kind.Clock
  | Span _ -> Kind.Span
  | Sched_run _ -> Kind.Sched_run
  | Sched_block _ -> Kind.Sched_block
  | Irq _ -> Kind.Irq
  | Queue_depth _ -> Kind.Queue_depth
  | Msg_send _ -> Kind.Msg_send
  | Obj_alloc _ -> Kind.Obj_alloc
  | Obj_transfer _ -> Kind.Obj_transfer
  | Obj_free _ -> Kind.Obj_free
  | Pool_alloc _ -> Kind.Pool_alloc
  | Pool_free _ -> Kind.Pool_free
  | Ivar_fill _ -> Kind.Ivar_fill
  | Sem_create _ -> Kind.Sem_create
  | Sem_acquire _ -> Kind.Sem_acquire
  | Sem_release _ -> Kind.Sem_release
  | Ack_tx _ -> Kind.Ack_tx
  | Ack_rx _ -> Kind.Ack_rx
  | Snd_una _ -> Kind.Snd_una
  | Window _ -> Kind.Window
  | Chan_deliver _ -> Kind.Chan_deliver
  | Chan_dead _ -> Kind.Chan_dead
  | Msg_deliver _ -> Kind.Msg_deliver
  | Msg_recv _ -> Kind.Msg_recv
  | Rto_armed _ -> Kind.Rto_armed
  | Rx_poll_mode _ -> Kind.Rx_poll_mode
  | Poll_pass _ -> Kind.Poll_pass
  | Pool_pressure _ -> Kind.Pool_pressure
  | Tx_wire _ -> Kind.Tx_wire
  | Pause_state _ -> Kind.Pause_state
  | Pause_frame _ -> Kind.Pause_frame
  | Switch_buffer _ -> Kind.Switch_buffer
  | Switch_drop _ -> Kind.Switch_drop
  | Ecn_mark _ -> Kind.Ecn_mark
  | Sack_tx _ -> Kind.Sack_tx
  | Sack_rx _ -> Kind.Sack_rx
  | Chan_retx _ -> Kind.Chan_retx
  | Gray_fault _ -> Kind.Gray_fault

let sink : (event -> unit) option ref = ref None

(* Mirror of [sink <> None], kept as a plain bool so every emit site in the
   hot path pays a single load-and-test — no option dereference, no
   polymorphic comparison — when nothing is listening (the common case). *)
let on = ref false

let enabled () = !on

let emit ev = match !sink with Some f -> f ev | None -> ()

let install f =
  sink := Some f;
  on := true

let uninstall () =
  sink := None;
  on := false

let tap f =
  let prev = !sink in
  (match prev with
  | None -> install f
  | Some g ->
      install (fun ev ->
          f ev;
          g ev));
  fun () -> match prev with Some g -> install g | None -> uninstall ()

let owner_name = function
  | App -> "app"
  | Channel -> "channel"
  | Driver -> "driver"
  | Bh -> "bottom-half"
  | Nic -> "nic"

let kind_name = function Skb -> "skbuff" | Rx_buffer -> "rx-buffer"

let track_name = function
  | Process -> "process"
  | Isr -> "isr"
  | Bh_track -> "bottom-half"
  | Module -> "module"
  | Dma -> "dma"
  | Link -> "link"
  | Pause_t -> "pause"
  | Busy -> "busy"
