(** A complete cluster node: hardware, OS and both protocol stacks.

    One node owns a CPU, a memory bus, a PCI bus, one or more NICs (channel
    bonding uses one switch per NIC rank), and runs the TCP/IP suite and
    CLIC side by side on the same hardware — which is how the paper's
    comparisons are made fair. *)

open Engine
open Hw
open Os_model
open Proto

type config = {
  mtu : int;
  nics : int;  (** NICs per node (channel bonding when > 1) *)
  link_bits_per_s : float;
  coalesce : Nic.coalesce;
  nic_fragmentation : bool;
  nic_internal_bytes_per_s : float;
  nic_firmware_per_frame : Time.span;
  pci_efficiency : float;
  pci_width_bytes : int;  (** 4 = the testbed's 32-bit PCI; 8 = 64-bit *)
  cpu_copy_bytes_per_s : float;
  membus_bytes_per_s : float;
  kmem_capacity : int;
  irq_dispatch : Time.span;
  clic_params : Clic.Params.t;
  driver_params : Driver.params;
  tcp_params : Tcp.params;
  link_fault : (unit -> Fault.t) option;
      (** per-link fault injection, for exercising the reliability layers *)
  pci_per_nic : bool;
      (** give each NIC its own PCI segment (server chipsets); on the
          default shared 33 MHz bus, bonded NICs are capped by the bus *)
  switch_egress_frames : int option;
      (** finite switch output buffers (tail drop); [None] = unbounded *)
  switch_ingress_frames : int option;
      (** finite switch uplink FIFOs: NICs transmitting without
          backpressure lose frames to {!Hw.Switch.ingress_drops} *)
  switch_buffer : Hw.Switch.buffer option;
      (** shared-buffer ledger and 802.3x PAUSE generation at the switch *)
  nic_pause : Hw.Nic.pause option;
      (** 802.3x flow control at the NICs; [None] = a legacy MAC that
          ignores PAUSE frames and blind-dumps into full uplinks *)
}

val default_config : config
(** The paper's testbed: Gigabit Ethernet, 33 MHz/32-bit PCI, one NIC,
    MTU 1500, coalesced interrupts, CLIC path 2 (0-copy). *)

val gigabit_jumbo : config -> config
(** Same but MTU 9000. *)

type t = {
  id : int;
  config : config;
  switches : Switch.t list;
  cpu_ : Cpu.t;  (** hardware: survives crashes (use {!cpu}) *)
  membus : Bus.t;
  pci_for : int -> Bus.t;
  mutable env : Hostenv.t;  (** primary host environment (first NIC's driver) *)
  mutable nics : Nic.t list;
  mutable eths : Ethernet.t list;
  mutable intr : Interrupt.t;
  mutable ip : Ip.t;
  mutable tcp : Tcp.t;
  mutable udp : Udp.t;
  mutable clic : Clic.Api.t;
  mutable epoch : int;  (** boot count; bumped by {!reboot} *)
  mutable up : bool;
  mutable crashes : int;
}

val create : Sim.t -> id:int -> switches:Switch.t list -> config -> t
(** Wires NIC [k] to [List.nth switches k]; the switches list must be at
    least [config.nics] long and ports for [id] must already exist. *)

val cpu : t -> Cpu.t
val spawn : t -> (unit -> unit) -> unit
(** Start an application process on this node. *)

(** {1 Crash and recovery} *)

val crash : t -> unit
(** Pull the plug: the CLIC module shuts down (channels torn down, staged
    backlog returned to the kernel pool so its accounting balances), the
    NICs power off (in-flight frames toward the node are lost silently)
    and the drivers stop.  Peers notice only through their own
    {!Clic.Params.max_retries} caps.  Application processes of the dead
    node that were blocked inside the kernel are woken with
    {!Clic.Channel.Dead}.
    @raise Invalid_argument if the node is already down. *)

val reboot : t -> unit
(** Build a fresh kernel on the surviving hardware with the boot epoch
    bumped by one: switch downlinks are re-pointed at the new NICs, and
    peers recognise the higher epoch in arriving frames, discard their
    pre-crash channel state for this node and re-establish.  All mutable
    fields of [t] are replaced.
    @raise Invalid_argument if the node is up (call {!crash} first). *)

val is_up : t -> bool
val epoch : t -> int
val crashes : t -> int
