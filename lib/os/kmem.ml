open Engine

type level = [ `Normal | `Soft | `Hard ]

type t = {
  name : string;
  capacity : int;
  soft_mark : int;
  hard_mark : int;
  mutable used : int;
  mutable high_water : int;
  mutable failed : int;
}

let create ?(name = "kmem") ~capacity ?soft_mark ?hard_mark () =
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Kmem.create(%s): capacity <= 0" name);
  let soft = Option.value soft_mark ~default:capacity in
  let hard = Option.value hard_mark ~default:capacity in
  if soft <= 0 || soft > hard || hard > capacity then
    invalid_arg
      (Printf.sprintf
         "Kmem.create(%s): watermarks out of order (want 0 < soft %d <= \
          hard %d <= capacity %d)"
         name soft hard capacity);
  {
    name;
    capacity;
    soft_mark = soft;
    hard_mark = hard;
    used = 0;
    high_water = 0;
    failed = 0;
  }

let level t : level =
  if t.used >= t.hard_mark then `Hard
  else if t.used >= t.soft_mark then `Soft
  else `Normal

let level_int = function `Normal -> 0 | `Soft -> 1 | `Hard -> 2

let probe_pressure t before =
  if !Probe.on then begin
    let after = level t in
    if after <> before then
      Probe.emit
        (Probe.Pool_pressure { pool = t.name; level = level_int after })
  end

let try_alloc t n =
  if n <= 0 then
    invalid_arg
      (Printf.sprintf
         "Kmem.try_alloc(%s): non-positive size %dB (%dB outstanding of %dB)"
         t.name n t.used t.capacity);
  if t.used + n <= t.capacity then begin
    let before = level t in
    t.used <- t.used + n;
    if t.used > t.high_water then t.high_water <- t.used;
    if !Probe.on then
      Probe.emit
        (Probe.Pool_alloc
           { pool = t.name; bytes = n; used = t.used; capacity = t.capacity });
    probe_pressure t before;
    true
  end
  else begin
    t.failed <- t.failed + 1;
    false
  end

let free t n =
  if n <= 0 then
    invalid_arg
      (Printf.sprintf
         "Kmem.free(%s): non-positive size %dB (%dB outstanding of %dB)"
         t.name n t.used t.capacity);
  if n > t.used then
    invalid_arg
      (Printf.sprintf
         "Kmem.free(%s): freeing %dB but only %dB outstanding (capacity %dB)"
         t.name n t.used t.capacity);
  let before = level t in
  t.used <- t.used - n;
  if !Probe.on then
    Probe.emit (Probe.Pool_free { pool = t.name; bytes = n; used = t.used });
  probe_pressure t before

let in_use t = t.used
let soft_mark t = t.soft_mark
let hard_mark t = t.hard_mark
let high_water t = t.high_water
let failed_allocs t = t.failed
