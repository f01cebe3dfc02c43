(* perfbench: the repository benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (or [all]) for about S host seconds as repeated
   identical rounds of one seeded simulation: simulated metrics come from
   the seed alone and must repeat exactly in every round; host metrics are
   medians over the rounds. --trace 1 instead alternates untraced and
   traced rounds and reports the per-layer metrics. The last line of
   standard output is the result object; the exit code is non-zero when
   an output check or the instrument check fails. *)

open Perfbench_core
open Measure

(* The metrics of the result object, by mode. Every one must be present
   on every workload. *)
let end_to_end_names =
  [
    "append_p50_us"; "append_p99_us"; "append_p999_us"; "read_p50_us";
    "read_p99_us"; "appends_per_s"; "host_cpu_norm_us_per_record";
    "alloc_words_per_record"; "peak_heap_mb"; "setup_s";
  ]

let per_layer_names =
  [
    "append.to_first_accept_p50_us"; "append.to_first_accept_p99_us";
    "append.accept_spread_p99_us"; "append.accept_to_ack_p50_us";
    "order.ack_to_bound_p50_us"; "order.ack_to_bound_p99_us";
    "shard.bound_to_stable_p99_us"; "read.stable_to_served_p50_us";
    "read.stable_to_served_p99_us"; "orderer.batch_records_p50";
    "orderer.depth_p99"; "orderer.claim_to_stable_p99_us";
    "orderer.stable_records_per_s"; "seq_log.live_max";
    "rpc.timeouts_per_krecord"; "rpc.retries_per_krecord"; "shard.noops";
    "disk.ops_per_record"; "disk.queue_us_per_op"; "fabric.msgs_per_record";
    "fabric.bytes_per_record"; "engine.events_per_record";
    "engine.fibers_per_record"; "engine.timers_cancelled_per_record";
    "engine.host_ns_per_event"; "gc.minor_per_krecord";
    "gc.major_slices_per_krecord"; "gc.host_share"; "tracing.overhead";
  ]

(* Rounds until [seconds] of wall time have passed, at least [min]. *)
let repeat ~seconds ~min f =
  let start = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let report ~(w : Workloads.spec) ~seed ~rounds ~(first : result) ~metrics ~problems
    ~contract =
  Printf.printf "perfbench %s seed=%d rounds=%d window=%.3fs(sim) samples: append=%d read=%d\n"
    w.Workloads.name seed rounds first.window_s
    (Samples.count first.app) (Samples.count first.rd);
  List.iter
    (fun clock ->
      Printf.printf "%s:\n" (match clock with Metric.Sim -> "sim" | Metric.Host -> "host");
      List.iter
        (fun m -> if m.Metric.clock = clock then print_endline (Metric.render m))
        metrics)
    [ Metric.Sim; Metric.Host ];
  Printf.printf "detail {\"workload\": %S, \"seed\": %d, \"rounds\": %d, %s, %s}\n"
    w.Workloads.name seed rounds
    (Metric.block metrics Metric.Sim) (Metric.block metrics Metric.Host);
  let missing = Metric.missing ~names:contract metrics in
  let problems =
    problems @ List.map (Printf.sprintf "metric %s not measured") missing
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") problems;
  let f = first.failures in
  print_endline
    (Metric.result_line ~correct:(problems = [])
       ~attempted:(Failures.attempted f) ~failed:(Failures.failed f)
       (Metric.pick ~names:contract metrics));
  problems = []

let consistency rounds =
  let first = List.hd rounds in
  List.concat_map (fun r -> r.violations) rounds
  @
  if List.for_all (same_sim first) rounds then []
  else [ "rounds of one seed disagree on simulated results" ]

let run_plain (w : Workloads.spec) ~seed ~seconds =
  let setups = List.init w.Workloads.setup_reps (fun _ -> setup_once w ~seed) in
  let rounds =
    repeat ~seconds ~min:1 (fun () -> run_round w ~seed ~traced:false ~gc:None)
  in
  let first = List.hd rounds in
  let setups = setups @ List.map (fun r -> r.setup_cpu) rounds in
  report ~w ~seed ~rounds:(List.length rounds) ~first
    ~metrics:(end_to_end ~first ~rounds ~setups)
    ~problems:(consistency rounds) ~contract:end_to_end_names

let run_traced (w : Workloads.spec) ~seed ~seconds =
  let gc = Some (Host.Gc_spans.create ()) in
  let pairs =
    repeat ~seconds ~min:1 (fun () ->
        let u = run_round w ~seed ~traced:false ~gc in
        let t = run_round w ~seed ~traced:true ~gc in
        (u, t))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let first = List.hd traced in
  let instrument =
    List.concat_map (fun t -> t.instrument) traced
    @
    if List.for_all (same_sim (List.hd untraced)) traced then []
    else [ "traced round did not reproduce the untraced simulated results" ]
  in
  let metrics = first.layers @ first.extras @ host_layers pairs in
  report ~w ~seed ~rounds:(List.length pairs) ~first ~metrics
    ~problems:(consistency (untraced @ traced) @ instrument)
    ~contract:per_layer_names

let usage () =
  prerr_endline
    "usage: perfbench --workload \
     paper-tail|open-100k|st-tenants-closed|st-onelog-closed|all --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun _ -> usage ())
    "perfbench";
  let ws =
    if !workload = "all" then Workloads.all
    else match Workloads.find !workload with Some w -> [ w ] | None -> usage ()
  in
  let run = if !trace = 1 then run_traced else run_plain in
  let ok =
    List.fold_left (fun ok w -> run w ~seed:!seed ~seconds:!seconds && ok) true ws
  in
  exit (if ok then 0 else 1)
