(* A process-global instrumentation hub.

   Simulation components emit typed events here; nothing listens by
   default, so the cost of an uninstalled probe is one flag test.  The
   analysis layer (lib/check) installs a sink around a scenario run and
   reconstructs object lifecycles, protocol invariants and determinism
   hashes from the stream. *)

type owner = App | Channel | Driver | Bh | Nic

type obj_kind = Skb | Rx_buffer

type track = Process | Isr | Bh_track | Module | Dma | Link | Pause_t | Busy

type event =
  | Sim_start
  | Clock of { now : int }
  | Span of {
      host : string;
      track : track;
      label : string;
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
