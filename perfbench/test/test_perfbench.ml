(* Tests for the benchmark's pure helpers: the percentile rule, failure
   accounting, absent-vs-zero serialisation and the waterfall fold. *)

open Perfbench_core
open Lazylog

let samples_of n =
  let s = Samples.create () in
  for i = 1 to n do
    Samples.add s (n + 1 - i)
  done;
  s

let opt = Alcotest.(option int)

let test_nearest_rank () =
  let s = samples_of 2000 in
  Alcotest.check opt "p50 of 1..2000" (Some 1000) (Samples.quantile s ~q:0.5);
  Alcotest.check opt "p99 of 1..2000" (Some 1980) (Samples.quantile s ~q:0.99);
  Alcotest.(check int) "rank clamps low" 0 (Samples.rank ~q:0.0 5);
  Alcotest.(check int) "rank clamps high" 4 (Samples.rank ~q:1.0 5)

let test_ten_beyond () =
  Alcotest.check opt "p99.9 needs 10,000" None
    (Samples.quantile (samples_of 9_999) ~q:0.999);
  Alcotest.check opt "p99.9 at 10,000" (Some 9_990)
    (Samples.quantile (samples_of 10_000) ~q:0.999);
  Alcotest.check opt "p99 at 999" None (Samples.quantile (samples_of 999) ~q:0.99);
  Alcotest.check opt "p99 at 1000" (Some 990)
    (Samples.quantile (samples_of 1000) ~q:0.99);
  Alcotest.check opt "p50 at 20" (Some 10) (Samples.quantile (samples_of 20) ~q:0.5);
  Alcotest.check opt "p50 at 19" None (Samples.quantile (samples_of 19) ~q:0.5);
  Alcotest.check opt "empty" None (Samples.quantile (Samples.create ()) ~q:0.5)

let test_samples_equal () =
  Alcotest.(check bool) "same" true (Samples.equal (samples_of 50) (samples_of 50));
  Alcotest.(check bool) "longer" false (Samples.equal (samples_of 50) (samples_of 51))

let test_failures () =
  let f = { Failures.calls = 1000; returned_false = 2; shed = 8 } in
  Alcotest.(check int) "a shed is an extra attempt" 1008 (Failures.attempted f);
  Alcotest.(check int) "false returns and sheds fail" 10 (Failures.failed f);
  Alcotest.(check (option (float 1e-12))) "ratio" (Some (10. /. 1008.)) (Failures.ratio f);
  Alcotest.(check (option (float 0.))) "nothing attempted" None
    (Failures.ratio { Failures.calls = 0; returned_false = 0; shed = 0 });
  Alcotest.(check (option (float 0.))) "clean" (Some 0.)
    (Failures.ratio { Failures.calls = 5; returned_false = 0; shed = 0 })

let test_absent_vs_zero () =
  let ms =
    [
      Metric.sim ~unit_:"us" "read_p99_us" None;
      Metric.sim ~unit_:"count" "shard.noops" (Some 0.);
      Metric.host ~unit_:"s" "setup_s" (Some 0.25);
      Metric.host ~unit_:"ratio" "gc.host_share" (Some nan);
    ]
  in
  Alcotest.(check string) "absent and non-finite left out, zero kept"
    "{\"shard.noops\": {\"value\": 0, \"unit\": \"count\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
    (Metric.json_object ms);
  Alcotest.(check string) "clocks in separate blocks"
    "\"sim\": {\"shard.noops\": {\"value\": 0, \"unit\": \"count\"}}"
    (Metric.block ms Metric.Sim);
  Alcotest.(check (list string)) "missing" [ "read_p99_us"; "gc.host_share" ]
    (Metric.missing ~names:[ "read_p99_us"; "shard.noops"; "gc.host_share" ] ms);
  Alcotest.(check string) "quantile absent stays absent" "{}"
    (Metric.json_object [ Metric.us_of_ns "x" None ]);
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    (Metric.result_line ~correct:true ~attempted:3 ~failed:0 (Metric.pick ~names:[ "setup_s" ] ms))

let test_number () =
  List.iter
    (fun v -> Alcotest.(check (float 0.)) "round trip" v (float_of_string (Metric.number v)))
    [ 0.1 +. 0.2; 9.741; 1e-7; 765600.; 2720.381317117638 ];
  Alcotest.(check string) "shortest" "9.741" (Metric.number 9.741);
  Alcotest.(check string) "ns to us" "{\"p\": {\"value\": 6.757, \"unit\": \"us\"}}"
    (Metric.json_object [ Metric.us_of_ns "p" (Some 6757) ])

let rid client seq = { Types.Rid.client; seq }

(* Two records of log 0 and one of log 3, with a late ack (bound before
   the client heard the last replica) and a read served twice. *)
let events =
  let a = rid 1 1 and b = rid 2 1 and c = rid 3 1 in
  let p3 = Logid.pack ~log:3 0 in
  [
    (100, Probe.Append_invoked { rid = a });
    (105, Probe.Append_invoked { rid = b });
    (110, Probe.Replica_accepted { replica = 0; rid = a });
    (112, Probe.Replica_accepted { replica = 1; rid = a });
    (115, Probe.Replica_accepted { replica = 2; rid = a });
    (120, Probe.Append_acked { rid = a });
    (130, Probe.Replica_accepted { replica = 0; rid = b });
    (131, Probe.Replica_accepted { replica = 1; rid = b });
    (150, Probe.Shard_stored { shard = 0; pos = 0; rid = a });
    (155, Probe.Shard_stored { shard = 0; pos = 1; rid = b });
    (160, Probe.Replica_accepted { replica = 2; rid = b });
    (170, Probe.Append_acked { rid = b });
    (180, Probe.Stable_advanced { gp = 1 });
    (190, Probe.Read_served { shard = 0; pos = 0; rid = a });
    (195, Probe.Read_served { shard = 0; pos = 0; rid = a });
    (200, Probe.Stable_advanced { gp = 2 });
    (210, Probe.Read_served { shard = 0; pos = 1; rid = b });
    (300, Probe.Append_invoked { rid = c });
    (310, Probe.Replica_accepted { replica = 0; rid = c });
    (320, Probe.Append_acked { rid = c });
    (330, Probe.Shard_stored { shard = 1; pos = p3; rid = c });
    (340, Probe.Stable_advanced { gp = p3 + 1 });
  ]

let fold evs =
  let wf = Waterfall.create () in
  List.iter (fun (now, ev) -> Waterfall.feed wf ~now ev) evs;
  wf

let segs s = List.map (Waterfall.segment s) Waterfall.segments

let test_waterfall () =
  let wf = fold events in
  match Waterfall.records wf with
  | [ a; b; c ] ->
    Alcotest.(check (list opt)) "record a" [ Some 10; Some 5; Some 5; Some 30; Some 30; Some 10 ] (segs a);
    Alcotest.(check (list opt)) "record b: bound before its ack" [ Some 25; Some 30; Some 10; Some (-15); Some 45; Some 10 ] (segs b);
    Alcotest.(check opt) "sum is invoke -> first read" (Some (210 - 105)) (Waterfall.sum b);
    Alcotest.(check int) "accepts" 3 a.Waterfall.accepts;
    Alcotest.(check int) "packed position bound" (Logid.pack ~log:3 0) c.Waterfall.pos;
    Alcotest.(check int) "its own log's frontier made it stable" 340 c.Waterfall.stable;
    Alcotest.(check bool) "unread record incomplete" false (Waterfall.complete c);
    Alcotest.(check opt) "no sum without a read" None (Waterfall.sum c);
    Alcotest.(check int) "no anomalies" 0 (Waterfall.anomalies wf)
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l)

let test_waterfall_anomalies () =
  let a = rid 1 1 in
  let wf =
    fold
      [
        (1, Probe.Append_invoked { rid = a });
        (2, Probe.Append_acked { rid = a });
        (3, Probe.Append_acked { rid = a });
        (4, Probe.Append_acked { rid = rid 9 9 });
        (5, Probe.Shard_nooped { shard = 0; pos = 0; rid = a });
      ]
  in
  Alcotest.(check int) "double ack and unknown ack" 2 (Waterfall.anomalies wf);
  Alcotest.(check int) "no-op counted" 1 (Waterfall.noops wf)

let () =
  Alcotest.run "perfbench"
    [
      ( "samples",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "equality" `Quick test_samples_equal;
        ] );
      ("failures", [ Alcotest.test_case "accounting" `Quick test_failures ]);
      ( "metric",
        [
          Alcotest.test_case "absent vs zero" `Quick test_absent_vs_zero;
          Alcotest.test_case "numbers" `Quick test_number;
        ] );
      ( "waterfall",
        [
          Alcotest.test_case "fold" `Quick test_waterfall;
          Alcotest.test_case "anomalies" `Quick test_waterfall_anomalies;
        ] );
    ]
