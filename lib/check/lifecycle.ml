(* The object-lifecycle sanitizer.

   Reconstructs an ownership state machine for every kernel object the
   simulation reports to {!Engine.Probe} — SK_BUFFs and NIC receive-ring
   buffers (allocated -> owned by driver / bottom half / channel / app ->
   freed) plus the byte-accounted staging pools — and flags:

   - use-after-free: an ownership transfer on a freed object,
   - double-free: a second free,
   - leaks: objects still live (or pool bytes still outstanding) when a
     simulation ends.

   Every finding carries the object's event backtrace (sim time + code
   point of each alloc / transfer / free it saw).  Identities are
   process-unique, so a [Sim_start] is a clean boundary: anything still
   live then leaked from the previous simulation of the scenario. *)

open Engine

let max_history = 8

type obj_state = {
  o_bytes : int;
  mutable o_live : bool;
  mutable o_owner : Probe.owner;
  mutable o_history : (int * string) list;  (* newest first *)
  mutable o_hist_len : int;
}

type pool_state = {
  mutable p_used : int;
  mutable p_high : int;
  p_capacity : int;
}

type t = {
  leak_check : bool;
  objs : (Probe.obj_kind * int, obj_state) Hashtbl.t;
  pools : (string, pool_state) Hashtbl.t;
  high_water : (string, int) Hashtbl.t;  (* survives Sim_start resets *)
  mutable now : int;
  mutable violations : Violation.t list;
  mutable live : int;  (* objects of [objs] still live *)
  mutable live_peak : int;
}

let create ~leak_check () =
  {
    leak_check;
    objs = Hashtbl.create 512;
    pools = Hashtbl.create 8;
    high_water = Hashtbl.create 8;
    now = 0;
    violations = [];
    live = 0;
    live_peak = 0;
  }

let obj_name kind id = Printf.sprintf "%s#%d" (Probe.kind_name kind) id

let backtrace st =
  st.o_history |> List.rev
  |> List.map (fun (t, what) -> Printf.sprintf "t=%dns %s" t what)
  |> String.concat "; "

let note st t what =
  st.o_history <- (t.now, what) :: st.o_history;
  st.o_hist_len <- st.o_hist_len + 1;
  if st.o_hist_len > max_history then begin
    (* keep the allocation record (oldest entry) and the newest ones *)
    match List.rev st.o_history with
    | oldest :: rest ->
        st.o_history <- List.rev (oldest :: List.tl rest);
        st.o_hist_len <- st.o_hist_len - 1
    | [] -> ()
  end

let violation t ~rule detail =
  t.violations <-
    Violation.make ~pass:"lifecycle" ~rule ~time_ns:t.now detail
    :: t.violations

let flush_boundary t =
  if t.leak_check then begin
    Hashtbl.iter
      (fun (kind, id) st ->
        if st.o_live then
          violation t ~rule:"leak"
            (Printf.sprintf "%s (%dB, owner %s) never freed; %s"
               (obj_name kind id) st.o_bytes
               (Probe.owner_name st.o_owner)
               (backtrace st)))
      t.objs;
    Hashtbl.iter
      (fun pool p ->
        if p.p_used > 0 then
          violation t ~rule:"pool-leak"
            (Printf.sprintf
               "pool %s ends with %dB outstanding (capacity %dB)" pool
               p.p_used p.p_capacity))
      t.pools
  end;
  Hashtbl.reset t.objs;
  Hashtbl.reset t.pools;
  t.live <- 0

let on_event t (ev : Probe.event) =
  match ev with
  | Probe.Clock { now } -> t.now <- now
  | Probe.Sim_start ->
      flush_boundary t;
      t.now <- 0
  | Probe.Obj_alloc { kind; id; bytes; owner; where } -> (
      match Hashtbl.find_opt t.objs (kind, id) with
      | Some st when st.o_live ->
          violation t ~rule:"double-alloc"
            (Printf.sprintf "%s allocated again at %s; %s"
               (obj_name kind id) where (backtrace st))
      | _ ->
          let st =
            {
              o_bytes = bytes;
              o_live = true;
              o_owner = owner;
              o_history = [];
              o_hist_len = 0;
            }
          in
          note st t
            (Printf.sprintf "alloc at %s (owner %s)" where
               (Probe.owner_name owner));
          Hashtbl.replace t.objs (kind, id) st;
          t.live <- t.live + 1;
          t.live_peak <- max t.live_peak t.live)
  | Probe.Obj_transfer { kind; id; owner; where } -> (
      match Hashtbl.find_opt t.objs (kind, id) with
      | Some st when st.o_live ->
          st.o_owner <- owner;
          note st t
            (Printf.sprintf "transfer to %s at %s" (Probe.owner_name owner)
               where)
      | Some st ->
          violation t ~rule:"use-after-free"
            (Printf.sprintf "%s transferred to %s at %s after free; %s"
               (obj_name kind id) (Probe.owner_name owner) where
               (backtrace st))
      | None ->
          violation t ~rule:"use-of-unknown"
            (Printf.sprintf "%s transferred to %s at %s but never allocated"
               (obj_name kind id) (Probe.owner_name owner) where))
  | Probe.Obj_free { kind; id; where } -> (
      match Hashtbl.find_opt t.objs (kind, id) with
      | Some st when st.o_live ->
          st.o_live <- false;
          t.live <- t.live - 1;
          note st t (Printf.sprintf "free at %s" where)
      | Some st ->
          violation t ~rule:"double-free"
            (Printf.sprintf "%s freed again at %s; %s" (obj_name kind id)
               where (backtrace st))
      | None ->
          violation t ~rule:"free-of-unknown"
            (Printf.sprintf "%s freed at %s but never allocated"
               (obj_name kind id) where))
  | Probe.Pool_alloc { pool; bytes = _; used; capacity } ->
      let p =
        match Hashtbl.find_opt t.pools pool with
        | Some p -> p
        | None ->
            let p = { p_used = 0; p_high = 0; p_capacity = capacity } in
            Hashtbl.add t.pools pool p;
            p
      in
      p.p_used <- used;
      if used > p.p_high then p.p_high <- used;
      let prev =
        Option.value (Hashtbl.find_opt t.high_water pool) ~default:0
      in
      if used > prev then Hashtbl.replace t.high_water pool used
  | Probe.Pool_free { pool; bytes = _; used } -> (
      match Hashtbl.find_opt t.pools pool with
      | Some p -> p.p_used <- used
      | None -> ())
  | _ -> ()

(* Ends the pass: the final simulation's survivors are leaks too. *)
let finish t =
  flush_boundary t;
  List.sort Violation.by_time t.violations

let notes t =
  let pools =
    Hashtbl.fold
      (fun pool high acc -> (pool, high) :: acc)
      t.high_water []
    |> List.sort compare
    |> List.map (fun (pool, high) ->
           Printf.sprintf "pool %s high-water %dB" pool high)
  in
  Printf.sprintf "peak live objects %d" t.live_peak :: pools
