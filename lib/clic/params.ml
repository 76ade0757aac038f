open Engine

type data_path =
  | Pio_direct
  | Dma_nic_buffer
  | Staged_direct
  | Staged_nic_buffer

type t = {
  module_tx : Time.span;
  module_rx : Time.span;
  header_bytes : int;
  data_path : data_path;
  ack_every : int;
  ack_timeout : Time.span;
  retransmit_timeout : Time.span;
  rto_min : Time.span;
  rto_max : Time.span;
  dup_ack_threshold : int;
  max_retries : int;
  tx_window : int;
  super_packet_bytes : int;
  staging_bytes_per_s : float;
  staging_overhead : Time.span;
  kmem_soft_frac : float;
  kmem_hard_frac : float;
  soft_window_frac : float;
  retx_scheme : [ `Go_back_n | `Sack ];
  sack_blocks : int;
  dctcp : bool;
  dctcp_g : float;
}

let default =
  {
    module_tx = Time.us 0.7;
    module_rx = Time.us 2.0;
    header_bytes = 12;
    data_path = Dma_nic_buffer;
    ack_every = 2;
    ack_timeout = Time.us 100.;
    retransmit_timeout = Time.ms 20.;
    rto_min = Time.ms 2.;
    rto_max = Time.ms 500.;
    dup_ack_threshold = 3;
    max_retries = 30;
    tx_window = 48;
    super_packet_bytes = 32768;
    staging_bytes_per_s = 80e6;
    staging_overhead = Time.us 2.;
    kmem_soft_frac = 0.5;
    kmem_hard_frac = 0.875;
    soft_window_frac = 0.5;
    retx_scheme = `Go_back_n;
    sack_blocks = Wire.max_sack_blocks;
    dctcp = false;
    dctcp_g = 0.0625;
  }

let one_copy = { default with data_path = Staged_nic_buffer }

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if t.rto_min > t.rto_max then
    fail "Clic.Params: rto_min %d > rto_max %d" t.rto_min t.rto_max;
  if t.dup_ack_threshold <= 0 then
    fail "Clic.Params: dup_ack_threshold %d <= 0" t.dup_ack_threshold;
  if t.max_retries <= 0 then
    fail "Clic.Params: max_retries %d <= 0" t.max_retries;
  if t.tx_window <= 0 then fail "Clic.Params: tx_window %d <= 0" t.tx_window;
  if t.ack_every <= 0 then fail "Clic.Params: ack_every %d <= 0" t.ack_every;
  if
    not
      (t.kmem_soft_frac > 0.
      && t.kmem_soft_frac <= t.kmem_hard_frac
      && t.kmem_hard_frac <= 1.)
  then
    fail
      "Clic.Params: kmem watermarks out of order (want 0 < soft %g <= hard \
       %g <= 1)"
      t.kmem_soft_frac t.kmem_hard_frac;
  if not (t.soft_window_frac > 0. && t.soft_window_frac <= 1.) then
    fail "Clic.Params: soft_window_frac %g outside (0, 1]" t.soft_window_frac;
  if t.sack_blocks < 1 || t.sack_blocks > Wire.max_sack_blocks then
    fail "Clic.Params: sack_blocks %d outside [1, %d]" t.sack_blocks
      Wire.max_sack_blocks;
  if not (t.dctcp_g > 0. && t.dctcp_g <= 1.) then
    fail "Clic.Params: dctcp_g %g outside (0, 1]" t.dctcp_g;
  t
