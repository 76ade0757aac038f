(* SLO degradation contracts: judge an open-loop latency record against
   what production promises under gray failure.

   A contract names three promises.  While the fabric is healthy the
   p999 latency stays under an absolute bound.  While a fail-slow fault
   is active the tail may bleed — but only to a bounded multiple of the
   healthy bound, because "degraded" must not mean "unbounded".  And
   once the fault clears, the tail must return under the healthy bound
   within a recovery deadline.

   Samples are classified by their *arrival instant*, not their
   completion instant: a request that arrived while the fault was active
   belongs to the degraded phase even if it completed after the clear.
   Requests arriving inside the recovery window are not judged at all —
   they drain the backlog and belong to neither regime.

   [evaluate] is pure; [run_contract] builds the canonical 4-node
   cluster, runs the open-loop workload across a mid-run gray-failure
   window (link brownout + slow NICs + switch egress stalls), and judges
   the result — part of the `clic-sim run slo` exit contract. *)

open Engine
open Cluster

type contract = {
  healthy_p999_us : float;
  bleed_ratio : float;
  recovery_deadline : Time.span;
}

let validate c =
  if c.healthy_p999_us <= 0. then
    invalid_arg "Slo.validate: healthy_p999_us <= 0";
  if c.bleed_ratio < 1. then invalid_arg "Slo.validate: bleed_ratio < 1";
  if c.recovery_deadline <= 0 then
    invalid_arg "Slo.validate: recovery_deadline <= 0"

let default =
  {
    healthy_p999_us = 1200.;
    bleed_ratio = 3.;
    recovery_deadline = Time.ms 1.;
  }

type verdict = {
  v_contract : contract;
  v_healthy : int;
  v_degraded : int;
  v_recovered : int;  (* sample counts per judged phase *)
  v_healthy_p999_us : float;
  v_degraded_p999_us : float;
  v_recovered_p999_us : float;
  v_violations : Violation.t list;
}

let ok v = v.v_violations = []

let evaluate c ~(slo : Workload.slo) ~fault_from ~fault_until =
  validate c;
  if fault_from < 0 || fault_until <= fault_from then
    invalid_arg "Slo.evaluate: empty or negative fault window";
  let recovered_at = fault_until + c.recovery_deadline in
  let phase_of at =
    if at < fault_from then `Healthy
    else if at < fault_until then `Degraded
    else if at < recovered_at then `Recovering
    else `Recovered
  in
  let healthy = ref [] and degraded = ref [] and recovered = ref [] in
  Array.iter
    (fun (at, lat_us) ->
      match phase_of at with
      | `Healthy -> healthy := lat_us :: !healthy
      | `Degraded -> degraded := lat_us :: !degraded
      | `Recovering -> ()
      | `Recovered -> recovered := lat_us :: !recovered)
    slo.Workload.slo_samples;
  let p999 l = Workload.quantile (Array.of_list l) 99.9 in
  let h999 = p999 !healthy
  and d999 = p999 !degraded
  and r999 = p999 !recovered in
  let vs = ref [] in
  let fail ~rule ~time_ns detail =
    vs := Violation.make ~pass:"slo" ~rule ~time_ns detail :: !vs
  in
  let require_phase name l time_ns =
    if l = [] then
      fail ~rule:"phase-empty" ~time_ns
        (Printf.sprintf "no request arrived during the %s phase: the \
                         contract cannot be certified" name)
  in
  require_phase "healthy" !healthy 0;
  require_phase "degraded" !degraded fault_from;
  require_phase "recovered" !recovered recovered_at;
  if !healthy <> [] && h999 > c.healthy_p999_us then
    fail ~rule:"healthy-p999" ~time_ns:0
      (Printf.sprintf "healthy p999 %.1f us exceeds the %.1f us bound" h999
         c.healthy_p999_us);
  if !degraded <> [] && d999 > c.bleed_ratio *. c.healthy_p999_us then
    fail ~rule:"bounded-bleed" ~time_ns:fault_from
      (Printf.sprintf
         "degraded p999 %.1f us exceeds the bleed bound %.1f us (%.0fx \
          the healthy bound)"
         d999
         (c.bleed_ratio *. c.healthy_p999_us)
         c.bleed_ratio);
  if !recovered <> [] && r999 > c.healthy_p999_us then
    fail ~rule:"recovery-deadline" ~time_ns:recovered_at
      (Printf.sprintf
         "p999 is still %.1f us (bound %.1f us) for requests arriving \
          after the %.0f us recovery deadline"
         r999 c.healthy_p999_us
         (Time.to_us c.recovery_deadline));
  {
    v_contract = c;
    v_healthy = List.length !healthy;
    v_degraded = List.length !degraded;
    v_recovered = List.length !recovered;
    v_healthy_p999_us = h999;
    v_degraded_p999_us = d999;
    v_recovered_p999_us = r999;
    v_violations = List.rev !vs;
  }

(* ------------------------------------------------------------------ *)
(* The canonical contract run: the fleet CI gate behind
   `clic-sim run slo`. *)

let fault_from = Time.ms 2.
let fault_until = Time.ms 5.

let run_contract ?(quick = false) () =
  let requests_per_node = if quick then 60 else 120 in
  let faults = ref [] in
  let config =
    {
      Node.default_config with
      link_fault =
        Some
          (fun () ->
            let f =
              Hw.Fault.brownout ~fraction:0.125 ~from_:fault_from
                ~until_:fault_until
            in
            faults := f :: !faults;
            f);
    }
  in
  let c = Net.create ~config ~n:4 () in
  Workload.inject_gray c ~nic_nodes:[ 1; 2 ] ~nic_factor:6.0
    ~stall_nodes:[ 3 ] ~from_:fault_from ~until_:fault_until ();
  let _, slo =
    Workload.open_loop c ~seed:90125
      ~arrival:(Workload.Poisson { mean_gap = Time.us 200. })
      ~requests_per_node ~req_size:512 ~resp_size:2048 ()
  in
  let v = evaluate default ~slo ~fault_from ~fault_until in
  (* the contract is void unless every fail-slow mechanism engaged *)
  let t = Tally.net c in
  let engaged =
    [
      ( "link-brownout",
        List.fold_left (fun acc f -> acc + Hw.Fault.slowed f) 0 !faults > 0 );
      ("nic-slow", t.slow_extra_ns > 0);
      ("switch-stall", t.egress_stall_ns > 0);
    ]
  in
  let missing =
    List.filter_map
      (fun (mech, fired) ->
        if fired then None
        else
          Some
            (Violation.make ~pass:"slo" ~rule:"mechanism-idle"
               ~time_ns:fault_from
               (Printf.sprintf "gray mechanism %s never engaged" mech)))
      engaged
  in
  ({ v with v_violations = v.v_violations @ missing }, slo)

let pp_verdict fmt v =
  let c = v.v_contract in
  Format.fprintf fmt
    "contract: healthy p999 <= %.0f us, degraded <= %.0fx, recover \
     within %.0f us@."
    c.healthy_p999_us c.bleed_ratio
    (Time.to_us c.recovery_deadline);
  let line name count p999 bound =
    Format.fprintf fmt "  %-10s %5d requests  p999 %8.1f us  (bound %8.1f)@."
      name count p999 bound
  in
  line "healthy" v.v_healthy v.v_healthy_p999_us c.healthy_p999_us;
  line "degraded" v.v_degraded v.v_degraded_p999_us
    (c.bleed_ratio *. c.healthy_p999_us);
  line "recovered" v.v_recovered v.v_recovered_p999_us c.healthy_p999_us;
  if ok v then Format.fprintf fmt "  verdict: contract holds@."
  else
    List.iter
      (fun viol -> Format.fprintf fmt "  %a@." Violation.pp viol)
      v.v_violations
