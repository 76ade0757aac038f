(* Observability-layer tests.

   Property-based coverage of the Wire header codec and the Stats
   histogram (seeded [Engine.Rng] generators, no external dependency),
   the two Trace duration readings, and the lib/obs exporters: Chrome
   trace-event JSON validity and byte-determinism, the metrics registry,
   and the Figure-7 latency-attribution pass.  Golden-number regression
   bands for the Table 1 scalars live here too. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ------------------------------------------------------------------ *)
(* A minimal strict JSON syntax checker (recursive descent).  The
   toolchain has no JSON library; for validating exporter output a
   yes/no answer is all the tests need. *)

module Json_check = struct
  exception Bad of string

  let validate (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let bad msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some g when g = c -> advance ()
      | _ -> bad (Printf.sprintf "expected '%c'" c)
    in
    let literal w =
      let l = String.length w in
      if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
      else bad (Printf.sprintf "expected %S" w)
    in
    let string_ () =
      expect '"';
      let closed = ref false in
      while not !closed do
        match peek () with
        | None -> bad "unterminated string"
        | Some '"' ->
            advance ();
            closed := true
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> bad "bad \\u escape"
                done
            | _ -> bad "bad escape")
        | Some c when Char.code c < 0x20 -> bad "control char in string"
        | Some _ -> advance ()
      done
    in
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then bad "expected digit"
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then advance ()
          else begin
            let more = ref true in
            while !more do
              skip_ws ();
              string_ ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some '}' ->
                  advance ();
                  more := false
              | _ -> bad "expected ',' or '}'"
            done
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then advance ()
          else begin
            let more = ref true in
            while !more do
              value ();
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some ']' ->
                  advance ();
                  more := false
              | _ -> bad "expected ',' or ']'"
            done
          end
      | Some '"' -> string_ ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> bad "expected a value");
    in
    value ();
    skip_ws ();
    if !pos <> n then bad "trailing garbage"

  let ok s = try validate s; true with Bad _ -> false
end

let test_json_checker_itself () =
  check_bool "accepts object" true
    (Json_check.ok {|{"a": [1, -2.5e3, "x\n", true, null], "b": {}}|});
  check_bool "rejects trailing comma" false (Json_check.ok {|[1,2,]|});
  check_bool "rejects bare word" false (Json_check.ok "nope");
  check_bool "rejects unterminated" false (Json_check.ok {|{"a": 1|});
  check_bool "rejects garbage tail" false (Json_check.ok "{} {}")

(* ------------------------------------------------------------------ *)
(* Wire codec: property-based roundtrip plus malformed-header cases. *)

let gen_frag rng =
  let frag_count = 1 + Rng.int rng 0xffff in
  {
    Clic.Wire.msg_id = Rng.int rng 0x40000000;
    frag_index = Rng.int rng frag_count;
    frag_count;
    msg_bytes = Rng.int rng 0x40000000;
  }

(* Random but wire-legal SACK blocks: ascending, non-mergeable, start
   offsets and lengths in [1, 0xffff] relative to [cum_seq]. *)
let gen_sacks rng cum_seq =
  let count = Rng.int rng (Clic.Wire.max_sack_blocks + 1) in
  let blocks = ref [] and prev_end = ref cum_seq in
  for _ = 1 to count do
    let start = !prev_end + 1 + Rng.int rng 1_000 in
    let stop = start + 1 + Rng.int rng 1_000 in
    blocks := (start, stop) :: !blocks;
    prev_end := stop
  done;
  List.rev !blocks

let gen_packet rng =
  let kind =
    match Rng.int rng 5 with
    | 0 ->
        Clic.Wire.Data
          { port = Rng.int rng 0x10000; sync = Rng.bool rng; frag = gen_frag rng }
    | 1 -> Clic.Wire.Remote_write { region = Rng.int rng 0x10000; frag = gen_frag rng }
    | 2 -> Clic.Wire.Bcast { port = Rng.int rng 0x10000; frag = gen_frag rng }
    | 3 ->
        let cum_seq = Rng.int rng 0x40000000 in
        Clic.Wire.Chan_ack
          { cum_seq; window = Rng.int rng 0x40000000;
            ce_echo = Rng.bool rng; sacks = gen_sacks rng cum_seq }
    | _ -> Clic.Wire.Msg_ack { msg_id = Rng.int rng 0x40000000 }
  in
  {
    Clic.Wire.src = Rng.int rng 0x10000;
    epoch = Rng.int rng 0x10000;
    chan_seq = (if Rng.bool rng then Some (Rng.int rng 0x40000000) else None);
    data_bytes = Rng.int rng 0x10000;
    ce = Rng.bool rng;
    kind;
  }

let test_wire_roundtrip_property () =
  let rng = Rng.create ~seed:0xC11C in
  for i = 1 to 1_000 do
    let p = gen_packet rng in
    let q = Clic.Wire.(decode (encode p)) in
    if q <> p then
      Alcotest.failf "roundtrip mismatch at case %d: %a -> %a" i Clic.Wire.pp p
        Clic.Wire.pp q
  done

let test_wire_header_len () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 50 do
    check_int "encoded length" Clic.Wire.header_len
      (Bytes.length (Clic.Wire.encode (gen_packet rng)))
  done

let sample_data =
  {
    Clic.Wire.src = 3;
    epoch = 1;
    chan_seq = Some 41;
    data_bytes = 1400;
    ce = false;
    kind =
      Clic.Wire.Data
        {
          port = 9;
          sync = false;
          frag = { msg_id = 7; frag_index = 0; frag_count = 2; msg_bytes = 2800 };
        };
  }

let decode_fails b =
  match Clic.Wire.decode b with
  | _ -> false
  | exception Clic.Wire.Decode_error _ -> true

let test_wire_decode_rejects_malformed () =
  let enc = Clic.Wire.encode sample_data in
  check_bool "short header" true (decode_fails (Bytes.sub enc 0 12));
  check_bool "long header" true
    (decode_fails (Bytes.cat enc (Bytes.make 1 '\000')));
  let bad_tag = Bytes.copy enc in
  Bytes.set_uint8 bad_tag 0 5;
  check_bool "unknown tag" true (decode_fails bad_tag);
  let bad_flags = Bytes.copy enc in
  Bytes.set_uint8 bad_flags 1 0x80;
  check_bool "unknown flags" true (decode_fails bad_flags);
  let zero_count = Bytes.copy enc in
  Bytes.set_uint8 zero_count 22 0;
  Bytes.set_uint8 zero_count 23 0;
  check_bool "frag_count = 0" true (decode_fails zero_count);
  let bad_index = Bytes.copy enc in
  (* frag_index := frag_count (= 2) *)
  Bytes.set_uint8 bad_index 20 0;
  Bytes.set_uint8 bad_index 21 2;
  check_bool "frag_index >= frag_count" true (decode_fails bad_index);
  let sync_ack =
    Clic.Wire.encode { sample_data with kind = Clic.Wire.Msg_ack { msg_id = 7 } }
  in
  Bytes.set_uint8 sync_ack 1 (Bytes.get_uint8 sync_ack 1 lor 1);
  check_bool "sync on non-data" true (decode_fails sync_ack);
  (* CE-echo is an ack-only flag *)
  let ce_echo_data = Bytes.copy enc in
  Bytes.set_uint8 ce_echo_data 1 (Bytes.get_uint8 ce_echo_data 1 lor 8);
  check_bool "ce-echo on non-ack" true (decode_fails ce_echo_data)

let sample_ack =
  {
    sample_data with
    Clic.Wire.chan_seq = None;
    data_bytes = 0;
    kind =
      Clic.Wire.Chan_ack
        { cum_seq = 100; window = 8; ce_echo = true;
          sacks = [ (103, 105); (110, 111) ] };
  }

let test_wire_decode_rejects_malformed_sacks () =
  let enc = Clic.Wire.encode sample_ack in
  check_bool "well-formed ack decodes" true
    (Clic.Wire.decode enc = sample_ack);
  let too_many = Bytes.copy enc in
  Bytes.set_uint8 too_many 26 (Clic.Wire.max_sack_blocks + 1);
  check_bool "sack count > 3" true (decode_fails too_many);
  let on_data = Clic.Wire.encode sample_data in
  Bytes.set_uint8 on_data 26 1;
  check_bool "sack count on a data packet" true (decode_fails on_data);
  let zero_start = Bytes.copy enc in
  (* first block's start offset := 0: a block cannot begin at cum_seq *)
  Bytes.set_uint8 zero_start 28 0;
  Bytes.set_uint8 zero_start 29 0;
  check_bool "zero start offset" true (decode_fails zero_start);
  let zero_len = Bytes.copy enc in
  Bytes.set_uint8 zero_len 30 0;
  Bytes.set_uint8 zero_len 31 0;
  check_bool "zero block length" true (decode_fails zero_len);
  let out_of_order = Bytes.copy enc in
  (* second block's start offset := 1, inside the first block *)
  Bytes.set_uint8 out_of_order 32 0;
  Bytes.set_uint8 out_of_order 33 1;
  check_bool "blocks out of order" true (decode_fails out_of_order);
  let dirty_tail = Bytes.copy enc in
  (* a byte past the two declared blocks must stay zero *)
  Bytes.set_uint8 dirty_tail 38 0x5a;
  check_bool "unused sack bytes nonzero" true (decode_fails dirty_tail);
  (match
     Clic.Wire.encode
       { sample_ack with
         kind =
           Clic.Wire.Chan_ack
             { cum_seq = 100; window = 8; ce_echo = false;
               sacks = [ (103, 105); (105, 107) ] } }
   with
  | _ -> Alcotest.fail "mergeable sack blocks accepted"
  | exception Invalid_argument _ -> ());
  match
    Clic.Wire.encode
      { sample_ack with
        kind =
          Clic.Wire.Chan_ack
            { cum_seq = 100; window = 8; ce_echo = false;
              sacks = [ (100, 105) ] } }
  with
  | _ -> Alcotest.fail "sack block starting at cum_seq accepted"
  | exception Invalid_argument _ -> ()

let test_wire_epoch_field_and_old_format () =
  (* epoch at offsets 24-25, sack count at 26, reserved zero at 27,
     sack blocks at 28-39 *)
  check_int "header grew to 40 bytes for ECN/SACK" 40 Clic.Wire.header_len;
  List.iter
    (fun epoch ->
      let p = { sample_data with Clic.Wire.epoch } in
      let q = Clic.Wire.(decode (encode p)) in
      if q <> p then Alcotest.failf "epoch %d did not roundtrip" epoch)
    [ 0; 1; 0xfffe; 0xffff ];
  (match Clic.Wire.encode { sample_data with Clic.Wire.epoch = 0x10000 } with
  | _ -> Alcotest.fail "epoch beyond 16 bits accepted"
  | exception Invalid_argument _ -> ());
  (match Clic.Wire.encode { sample_data with Clic.Wire.epoch = -1 } with
  | _ -> Alcotest.fail "negative epoch accepted"
  | exception Invalid_argument _ -> ());
  let enc = Clic.Wire.encode sample_data in
  (* older fixed-size layouts — exactly what an old peer would emit —
     must fail to decode entirely, never misparse into a packet *)
  check_bool "pre-epoch 24-byte format rejected outright" true
    (decode_fails (Bytes.sub enc 0 24));
  check_bool "pre-ECN 28-byte format rejected outright" true
    (decode_fails (Bytes.sub enc 0 28));
  (* a nonzero reserved byte is from the future: reject, don't guess *)
  let future = Bytes.copy enc in
  Bytes.set_uint8 future 27 0x80;
  check_bool "reserved byte 27 rejected" true (decode_fails future);
  (* the CE bit roundtrips on every kind that can carry it *)
  let marked = { sample_data with Clic.Wire.ce = true } in
  check_bool "CE bit roundtrips" true
    (Clic.Wire.(decode (encode marked)) = marked)

let test_wire_encode_rejects_out_of_range () =
  let encode_fails p =
    match Clic.Wire.encode p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "src too wide" true
    (encode_fails { sample_data with src = 0x10000 });
  check_bool "negative data_bytes" true
    (encode_fails { sample_data with data_bytes = -1 });
  check_bool "frag_index = frag_count" true
    (encode_fails
       {
         sample_data with
         kind =
           Clic.Wire.Data
             {
               port = 9;
               sync = false;
               frag =
                 { msg_id = 7; frag_index = 2; frag_count = 2; msg_bytes = 2800 };
             };
       })

(* ------------------------------------------------------------------ *)
(* Stats.Histogram invariants. *)

let test_histogram_properties () =
  let rng = Rng.create ~seed:99 in
  let h = Stats.Histogram.create "lat" in
  let maxv = ref 0 in
  for _ = 1 to 500 do
    let v = Rng.int rng 1_000_000 in
    maxv := max !maxv v;
    Stats.Histogram.add h v
  done;
  check_int "count" 500 (Stats.Histogram.count h);
  let bucket_sum =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Stats.Histogram.buckets h)
  in
  check_int "bucket counts sum to count" 500 bucket_sum;
  let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
  let _ =
    List.fold_left
      (fun prev p ->
        let v = Stats.Histogram.percentile h p in
        check_bool
          (Printf.sprintf "percentile monotone at p=%g" p)
          true (v >= prev);
        v)
      0 ps
  in
  check_bool "p100 covers the maximum" true
    (Stats.Histogram.percentile h 100. >= !maxv);
  let bounds_sorted =
    let bs = List.map fst (Stats.Histogram.buckets h) in
    bs = List.sort_uniq compare bs
  in
  check_bool "bucket bounds ascending" true bounds_sorted;
  check_int "empty histogram percentile" 0
    (Stats.Histogram.percentile (Stats.Histogram.create "empty") 50.)

(* ------------------------------------------------------------------ *)
(* Trace: the two duration readings. *)

let test_trace_duration_semantics () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  (* two overlapping spans and one disjoint one: [0,10] [5,15] [20,30] *)
  Trace.record tr "stage" 0 10;
  Trace.record tr "stage" 5 15;
  Trace.record tr "stage" 20 30;
  Trace.record tr "other" 2 4;
  (match Trace.duration tr "stage" with
  | Some d -> check_int "duration sums with multiplicity" 30 d
  | None -> Alcotest.fail "duration: label missing");
  (match Trace.disjoint_duration tr "stage" with
  | Some d -> check_int "disjoint merges the overlap" 25 d
  | None -> Alcotest.fail "disjoint_duration: label missing");
  check_bool "missing label" true (Trace.duration tr "nope" = None);
  check_bool "missing label (disjoint)" true
    (Trace.disjoint_duration tr "nope" = None)

let test_merged_length () =
  check_int "empty" 0 (Trace.merged_length []);
  check_int "abutting intervals merge" 10
    (Trace.merged_length [ (0, 5); (5, 10) ]);
  check_int "containment" 10 (Trace.merged_length [ (0, 10); (2, 8) ]);
  check_int "unsorted input" 12
    (Trace.merged_length [ (20, 25); (0, 5); (3, 7) ]);
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    let ivs =
      List.init
        (1 + Rng.int rng 10)
        (fun _ ->
          let a = Rng.int rng 1000 in
          (a, a + Rng.int rng 100))
    in
    let merged = Trace.merged_length ivs in
    let summed = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 ivs in
    check_bool "merged <= summed" true (merged <= summed);
    let lo = List.fold_left (fun m (a, _) -> min m a) max_int ivs in
    let hi = List.fold_left (fun m (_, b) -> max m b) 0 ivs in
    check_bool "merged <= hull" true (merged <= hi - lo)
  done

(* ------------------------------------------------------------------ *)
(* Recorded-scenario exporters. *)

let record name =
  match Check.Scenario.find name with
  | Some sc -> fst (Obs.Recorder.record sc)
  | None -> Alcotest.failf "scenario %S not registered" name

(* The cheap end of the registry; the CI workflow sweeps all 18. *)
let quick_scenarios = [ "fig7"; "ext2"; "ext3"; "ext4"; "chaos" ]

let test_timeline_json_valid () =
  List.iter
    (fun name ->
      let rec_ = record name in
      check_bool (name ^ " recorded events") true (Obs.Recorder.count rec_ > 0);
      let json = Obs.Timeline.export rec_ in
      match Json_check.validate json with
      | () -> ()
      | exception Json_check.Bad msg ->
          Alcotest.failf "%s timeline JSON invalid: %s" name msg)
    quick_scenarios

let test_timeline_deterministic () =
  let a = Obs.Timeline.export (record "fig7") in
  let b = Obs.Timeline.export (record "fig7") in
  check_bool "byte-identical across runs" true (String.equal a b);
  check_bool "non-trivial output" true (String.length a > 1000)

let test_metrics_families_and_determinism () =
  let rec_ = record "fig7" in
  let m = Obs.Metrics.build rec_ in
  let fams = Obs.Metrics.families m in
  check_bool
    (Printf.sprintf "at least 6 instrument families (got %d: %s)"
       (List.length fams) (String.concat ", " fams))
    true
    (List.length fams >= 6);
  List.iter
    (fun f ->
      check_bool ("family present: " ^ f) true (List.mem f fams))
    [ "cpu-utilization"; "irq-rate"; "queue-depth"; "msg-count" ];
  List.iter
    (fun s ->
      let ts = List.map fst s.Obs.Metrics.s_points in
      check_bool (s.Obs.Metrics.s_name ^ " time-ascending") true
        (ts = List.sort compare ts);
      if
        String.length s.Obs.Metrics.s_name >= 4
        && String.sub s.Obs.Metrics.s_name 0 4 = "cpu-"
      then
        List.iter
          (fun (_, v) ->
            check_bool "utilization within [0,1]" true (v >= 0. && v <= 1.000001))
          s.Obs.Metrics.s_points)
    m.Obs.Metrics.series;
  let csv1 = Obs.Metrics.to_csv m in
  let csv2 = Obs.Metrics.to_csv (Obs.Metrics.build (record "fig7")) in
  check_bool "CSV deterministic" true (String.equal csv1 csv2);
  let json = Obs.Metrics.to_json m in
  check_bool "metrics JSON valid" true (Json_check.ok json)

(* The metric families each contract experiment's question is answered
   from: recording the experiment must populate every one of them. *)
let scenario_families =
  [
    ("incast", [ "switch-buffer"; "switch-drop"; "pause" ]);
    ("fabric", [ "switch-buffer"; "switch-drop"; "pause" ]);
    ("congestion", [ "switch-buffer"; "switch-drop"; "ecn-mark"; "sack" ]);
    ("slo", [ "latency-quantile"; "msg-count"; "queue-depth" ]);
  ]

(* Beyond the family table, the incast export must carry [switch-buffer],
   [switch-drop] and [pause] with the right kinds and units, and stay
   byte-deterministic.  This is the golden export for the 802.3x
   instrumentation — if a probe stops firing or a family is renamed, this
   fails. *)
let test_metrics_congestion_families () =
  let built =
    List.map
      (fun (name, wanted) ->
        let m = Obs.Metrics.build (record name) in
        let fams = Obs.Metrics.families m in
        List.iter
          (fun f ->
            check_bool (Printf.sprintf "%s exports %s" name f) true
              (List.mem f fams))
          wanted;
        (name, m))
      scenario_families
  in
  let m = List.assoc "incast" built in
  let series = m.Obs.Metrics.series in
  let with_prefix p =
    List.filter
      (fun s ->
        String.length s.Obs.Metrics.s_name >= String.length p
        && String.sub s.Obs.Metrics.s_name 0 (String.length p) = p)
      series
  in
  let occupancy = with_prefix "switch-buffer/" in
  check_bool "switch-buffer series present" true (occupancy <> []);
  List.iter
    (fun s ->
      check_bool (s.Obs.Metrics.s_name ^ " is a gauge") true
        (s.Obs.Metrics.s_kind = Obs.Metrics.Gauge);
      Alcotest.(check string) "unit" "bytes" s.Obs.Metrics.s_unit;
      List.iter
        (fun (_, v) -> check_bool "occupancy >= 0" true (v >= 0.))
        s.Obs.Metrics.s_points)
    occupancy;
  (* the shared pool visibly filled at some point *)
  check_bool "occupancy rose above zero" true
    (List.exists
       (fun s -> List.exists (fun (_, v) -> v > 0.) s.Obs.Metrics.s_points)
       occupancy);
  let drops = with_prefix "switch-drop/" in
  check_bool "switch-drop series present" true (drops <> []);
  List.iter
    (fun s ->
      check_bool (s.Obs.Metrics.s_name ^ " is a counter") true
        (s.Obs.Metrics.s_kind = Obs.Metrics.Counter);
      Alcotest.(check string) "unit" "frames" s.Obs.Metrics.s_unit)
    drops;
  (* the tail-drop arm loses frames on both sides of the switch *)
  let has_dir d =
    List.exists (fun s -> Filename.check_suffix s.Obs.Metrics.s_name d) drops
  in
  check_bool "ingress drop series" true (has_dir ".ingress");
  check_bool "egress drop series" true (has_dir ".egress");
  let pause = with_prefix "pause/" in
  check_bool "pause series present" true (pause <> []);
  List.iter
    (fun s ->
      let is_state = Filename.check_suffix s.Obs.Metrics.s_name ".state" in
      check_bool (s.Obs.Metrics.s_name ^ " kind") true
        (s.Obs.Metrics.s_kind
        = if is_state then Obs.Metrics.Gauge else Obs.Metrics.Counter);
      Alcotest.(check string)
        "unit"
        (if is_state then "state" else "frames")
        s.Obs.Metrics.s_unit;
      if is_state then
        List.iter
          (fun (_, v) -> check_bool "state is 0/1" true (v = 0. || v = 1.))
          s.Obs.Metrics.s_points)
    pause;
  (* XOFF and XON both happened: some NIC went paused and came back *)
  check_bool "a transmit path was XOFFed" true
    (List.exists
       (fun s ->
         Filename.check_suffix s.Obs.Metrics.s_name ".state"
         && List.exists (fun (_, v) -> v = 1.) s.Obs.Metrics.s_points
         && List.exists (fun (_, v) -> v = 0.) s.Obs.Metrics.s_points)
       pause);
  check_bool "PAUSE frames were counted on both ends" true
    (List.exists
       (fun s -> Filename.check_suffix s.Obs.Metrics.s_name ".tx")
       pause
    && List.exists
         (fun s -> Filename.check_suffix s.Obs.Metrics.s_name ".rx")
         pause);
  let csv1 = Obs.Metrics.to_csv m in
  let csv2 = Obs.Metrics.to_csv (Obs.Metrics.build (record "incast")) in
  check_bool "congestion CSV deterministic" true (String.equal csv1 csv2);
  check_bool "congestion metrics JSON valid" true
    (Json_check.ok (Obs.Metrics.to_json m))

let test_attribution_matches_fig7 () =
  let expected = Report.Figures.fig7 null_fmt in
  let rec_ = record "fig7" in
  let msgs =
    List.filter (fun m -> m.Obs.Attribution.bytes = 1400)
      (Obs.Attribution.messages rec_)
  in
  check_int "one 1400B message per fig7 run" 2 (List.length msgs);
  let close what want got =
    if Float.abs (want -. got) > 1.0 then
      Alcotest.failf "%s: attribution %.2fus vs figure %.2fus" what got want
  in
  (match msgs with
  | [ a; b ] ->
      close "run (a) total" expected.Report.Figures.latency_a_us
        a.Obs.Attribution.stages.Obs.Attribution.total_us;
      close "run (b) total" expected.Report.Figures.latency_b_us
        b.Obs.Attribution.stages.Obs.Attribution.total_us;
      (* run (b) is the direct-from-ISR variant: no bottom half at all *)
      check_bool "run (b) has no bottom-half stage" true
        (b.Obs.Attribution.stages.Obs.Attribution.bottom_half_us = 0.);
      let sum s =
        Obs.Attribution.(
          s.module_tx_us +. s.driver_tx_us +. s.transit_us +. s.isr_us
          +. s.bottom_half_us +. s.module_rx_us)
      in
      List.iter
        (fun m ->
          let s = m.Obs.Attribution.stages in
          if
            Float.abs (sum s -. s.Obs.Attribution.total_us) > 0.01
          then
            Alcotest.failf "stages do not sum to total: %.2f vs %.2f" (sum s)
              s.Obs.Attribution.total_us)
        msgs
  | _ -> assert false);
  let p = Obs.Attribution.latency_percentiles msgs in
  check_bool "p50 <= p90 <= p99" true
    (p.Obs.Attribution.p50_us <= p.Obs.Attribution.p90_us
    && p.Obs.Attribution.p90_us <= p.Obs.Attribution.p99_us)

let test_host_attribution () =
  let cases =
    [
      ("cpu3", Some 3);
      ("mem0", Some 0);
      ("pci1", Some 1);
      ("pci1.2", Some 1);
      ("kmem7", Some 7);
      ("nic2.0", Some 2);
      ("switch0<-n4", Some 4);
      ("switch0->n5", Some 5);
      ("switch0", None);
      ("bogus", None);
      ("cpu", None);
    ]
  in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (option int)) name want (Obs.Host.node_of name))
    cases

(* ------------------------------------------------------------------ *)
(* Golden numbers: Table 1 scalars in quick mode.  Bands are centred on
   values measured at the time this test was written; a drift outside
   the band means the simulated protocol behaviour changed, which must
   be a deliberate, explained change. *)

let test_tab1_golden_numbers () =
  let scalars = Report.Figures.tab1 ~quick:true null_fmt in
  let get name =
    match
      List.find_opt (fun s -> s.Report.Figures.name = name) scalars
    with
    | Some s -> s.Report.Figures.measured
    | None -> Alcotest.failf "tab1 scalar %S missing" name
  in
  let in_band name lo hi =
    let v = get name in
    if v < lo || v > hi then
      Alcotest.failf "%s = %.2f outside golden band [%.2f, %.2f]" name v lo hi
  in
  in_band "0-byte latency (us)" 37.1 39.1;
  in_band "CLIC asymptote, MTU 9000 (Mbit/s)" 543.5 600.7;
  in_band "CLIC asymptote, MTU 1500 (Mbit/s)" 440.8 487.2;
  in_band "CLIC / TCP best-case ratio" 2.0 2.8;
  in_band "MPI-CLIC / MPI-TCP ratio (long messages)" 2.0 2.8;
  in_band "half-bandwidth message size, CLIC (B)" 5347.6 6536.0;
  in_band "half-bandwidth message size, TCP (B)" 7534.5 9208.9

let suite =
  [
    ("json checker sanity", `Quick, test_json_checker_itself);
    ("wire roundtrip (1000 random packets)", `Quick, test_wire_roundtrip_property);
    ("wire header length", `Quick, test_wire_header_len);
    ("wire rejects malformed headers", `Quick, test_wire_decode_rejects_malformed);
    ("wire rejects malformed sacks", `Quick, test_wire_decode_rejects_malformed_sacks);
    ("wire epoch & old-format rejection", `Quick, test_wire_epoch_field_and_old_format);
    ("wire rejects out-of-range fields", `Quick, test_wire_encode_rejects_out_of_range);
    ("histogram invariants", `Quick, test_histogram_properties);
    ("trace duration vs disjoint", `Quick, test_trace_duration_semantics);
    ("merged_length", `Quick, test_merged_length);
    ("timeline JSON validity", `Quick, test_timeline_json_valid);
    ("timeline determinism", `Quick, test_timeline_deterministic);
    ("metrics families + determinism", `Quick, test_metrics_families_and_determinism);
    ("metrics congestion families", `Slow, test_metrics_congestion_families);
    ("attribution reproduces fig7", `Quick, test_attribution_matches_fig7);
    ("host name attribution", `Quick, test_host_attribution);
    ("tab1 golden numbers", `Slow, test_tab1_golden_numbers);
  ]
