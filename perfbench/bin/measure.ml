(* Running rounds and turning them into metrics. *)

open Ll_sim
open Lazylog
open Perfbench_core
open Round

type result = {
  app : Samples.t;
  rd : Samples.t;
  acked_window : int;
  window_s : float;
  failures : Failures.t;
  setup_cpu : float;
  excluded : float;  (* CPU spent in the window on the kernel and GC polls *)
  slices : (float * float) list;
      (* per slice: CPU seconds per record, and the kernel timed after it *)
  h0 : Host.snap;
  h1 : Host.snap;
  peak_mb : float;
  violations : string list;
  layers : Metric.t list;  (* traced: simulated per-layer metrics *)
  extras : Metric.t list;  (* traced: per-layer metrics of one workload only *)
  instrument : string list;  (* traced: instrument-check failures *)
  gc : Host.Gc_spans.reading option;
}

(* Upper edge of the power-of-two bucket holding the [q]-quantile. *)
let hist_quantile h ~q =
  let total = Stats.Histogram.total h in
  if total = 0 then None
  else
    let need = Samples.rank ~q total + 1 in
    let rec go acc = function
      | [] -> None
      | (_, hi, n) :: rest ->
        if acc + n >= need then Some (float_of_int hi) else go (acc + n) rest
    in
    go 0 (Stats.Histogram.buckets h)

let per ~den num = Metric.ratio num (float_of_int den)

(* The simulated per-layer metrics of a traced round, plus the waterfall
   half of the instrument check. *)
let layer_metrics (w : Workloads.spec) ctx tr (l0 : layer_snap) (l1 : layer_snap)
    (h0 : Host.snap) (h1 : Host.snap) =
  let wf = tr.wf in
  let recs = List.filter (fun s -> in_window ctx s.Waterfall.invoked) (Waterfall.records wf) in
  let seg seg q name =
    let sm = Samples.create () in
    List.iter
      (fun s -> match Waterfall.segment s seg with Some d -> Samples.add sm d | None -> ())
      recs;
    Metric.us_of_ns name (Samples.quantile sm ~q)
  in
  let returned = Hashtbl.create 4096 in
  List.iter
    (fun (k, t) ->
      match Hashtbl.find_opt returned k with
      | Some t' when t' <= t -> ()
      | _ -> Hashtbl.replace returned k t)
    tr.returned;
  (* Instrument check: for every record read, the waterfall plus the
     served -> returned hop equals the benchmark's own invoke -> first
     read time; with a full waterfall every record must be complete. *)
  List.iter
    (fun (s : Waterfall.stamps) ->
      let k = rid_key s.Waterfall.rid in
      match (Hashtbl.find_opt returned k, Waterfall.sum s, Hashtbl.find_opt tr.slots k) with
      | Some t_ret, Some total, Some sl ->
        if total + (t_ret - s.Waterfall.served) <> t_ret - sl.t0 then
          instrument_error tr "record %d: segments sum to %d, timed %d" k
            (total + (t_ret - s.Waterfall.served)) (t_ret - sl.t0)
      | _ ->
        if w.Workloads.full_waterfall then
          instrument_error tr "record %d: incomplete waterfall" k)
    recs;
  if Waterfall.anomalies wf > 0 then
    instrument_error tr "%d lifecycle anomalies" (Waterfall.anomalies wf);
  let acked = ctx.acked_window in
  let window_s = Engine.to_sec ctx.window_ns in
  let c = ctx.env.cluster in
  let m = c.Erwin_common.metrics in
  let rpc = Ll_net.Rpc.counters_diff ~before:l0.rpc ~after:l1.rpc in
  let lag_n = Stats.Reservoir.count m.Erwin_common.stable_lag in
  let sim = Metric.sim in
  let layers =
    [
      seg Waterfall.To_first_accept 0.5 "append.to_first_accept_p50_us";
      seg Waterfall.To_first_accept 0.99 "append.to_first_accept_p99_us";
      seg Waterfall.Accept_spread 0.99 "append.accept_spread_p99_us";
      seg Waterfall.Accept_to_ack 0.5 "append.accept_to_ack_p50_us";
      seg Waterfall.Ack_to_bound 0.5 "order.ack_to_bound_p50_us";
      seg Waterfall.Ack_to_bound 0.99 "order.ack_to_bound_p99_us";
      seg Waterfall.Bound_to_stable 0.99 "shard.bound_to_stable_p99_us";
      seg Waterfall.Stable_to_served 0.5 "read.stable_to_served_p50_us";
      seg Waterfall.Stable_to_served 0.99 "read.stable_to_served_p99_us";
      sim ~unit_:"records" "orderer.batch_records_p50"
        (hist_quantile m.Erwin_common.batch_sizes ~q:0.5);
      sim ~unit_:"batches" "orderer.depth_p99"
        (hist_quantile m.Erwin_common.depth_samples ~q:0.99);
      sim ~unit_:"us" "orderer.claim_to_stable_p99_us"
        (if lag_n - Samples.rank ~q:0.99 lag_n - 1 >= Samples.min_beyond then
           Some (Stats.Reservoir.percentile_us m.Erwin_common.stable_lag 99.0)
         else None);
      sim ~unit_:"1/s" "orderer.stable_records_per_s"
        (Metric.ratio (float_of_int (l1.stable_total - l0.stable_total)) window_s);
      sim ~unit_:"entries" "seq_log.live_max" (Some (float_of_int tr.live_max));
      sim ~unit_:"1/krecord" "rpc.timeouts_per_krecord"
        (per ~den:acked (1000. *. float_of_int rpc.Ll_net.Rpc.cs_timeouts));
      sim ~unit_:"1/krecord" "rpc.retries_per_krecord"
        (per ~den:acked (1000. *. float_of_int rpc.Ll_net.Rpc.cs_retries));
      sim ~unit_:"count" "shard.noops" (Some (float_of_int (Waterfall.noops wf)));
      sim ~unit_:"ops/record" "disk.ops_per_record"
        (per ~den:acked (float_of_int (l1.disk_ops - l0.disk_ops)));
      sim ~unit_:"us" "disk.queue_us_per_op"
        (Metric.ratio (tr.disk_q_sum /. 1000.) (float_of_int tr.disk_q_n));
      sim ~unit_:"msgs/record" "fabric.msgs_per_record"
        (per ~den:acked (float_of_int (l1.msgs - l0.msgs)));
      sim ~unit_:"B/record" "fabric.bytes_per_record"
        (per ~den:acked (float_of_int (l1.bytes - l0.bytes)));
      sim ~unit_:"events/record" "engine.events_per_record"
        (per ~den:acked (float_of_int (h1.Host.s_events - h0.Host.s_events)));
      sim ~unit_:"fibers/record" "engine.fibers_per_record"
        (per ~den:acked (float_of_int (h1.Host.s_fibers - h0.Host.s_fibers)));
      sim ~unit_:"timers/record" "engine.timers_cancelled_per_record"
        (per ~den:acked (float_of_int (h1.Host.s_cancelled - h0.Host.s_cancelled)));
    ]
  in
  let extras =
    if c.Erwin_common.cfg.Config.append_batching then
      [
        sim ~unit_:"records" "batcher.records_per_flush"
          (Metric.ratio
             (float_of_int (l1.flushed - l0.flushed))
             (float_of_int (l1.flushes - l0.flushes)));
        sim ~unit_:"count" "ingress.admitted" (Some (float_of_int (l1.admitted - l0.admitted)));
        sim ~unit_:"count" "ingress.shed" (Some (float_of_int (l1.shed - l0.shed)));
      ]
    else []
  in
  (layers, extras)

let run_round (w : Workloads.spec) ~seed ~traced ~gc =
  (* Start every round from a compacted heap: rounds stay independent and
     the previous round's garbage does not add to the resident set. *)
  Gc.compact ();
  Probe.reset ();
  let out = ref None in
  Engine.run ~seed (fun () ->
      let c0 = Host.cpu () in
      let env = w.Workloads.build ~seed in
      let setup_cpu = Host.cpu () -. c0 in
      let t_measure = Engine.now () + w.Workloads.warmup in
      let t_end = t_measure + w.Workloads.window in
      let tr = if traced then Some (new_tracer ()) else None in
      let ctx =
        {
          env;
          t_measure;
          t_end;
          window_ns = w.Workloads.window;
          app = Samples.create ();
          rd = Samples.create ();
          acked_window = 0;
          calls = 0;
          falses = 0;
          outstanding = 0;
          acked_handle = Array.make (Array.length env.handles) 0;
          acked_log = Array.make env.nlogs 0;
          read_pos = Vec.create ();
          read_rid = Vec.create ();
          readers = 0;
          violations = [];
          tr;
        }
      in
      Option.iter (fun tr -> Probe.subscribe (handler ctx tr)) tr;
      let snaps = ref None and layer0 = ref None and layer1 = ref None in
      let gcr = ref None and peak = ref 0. in
      let slices = ref [] and excluded = ref 0. in
      Engine.spawn ~name:"perfbench.window" (fun () ->
          Engine.sleep_until t_measure;
          if traced then begin
            let m = env.cluster.Erwin_common.metrics in
            Stats.Histogram.clear m.Erwin_common.batch_sizes;
            Stats.Histogram.clear m.Erwin_common.depth_samples;
            Stats.Reservoir.clear m.Erwin_common.stable_lag;
            layer0 := Some (layer_snap env)
          end;
          Option.iter Host.Gc_spans.restart gc;
          let h0 = Host.snap () in
          (* Slice the window. At each slice edge, drain the GC event ring
             (so it never overflows) and time the reference kernel; both
             stay out of the measured CPU. *)
          let k = w.Workloads.slices in
          let prev = ref (h0.Host.s_cpu, 0) in
          for i = 1 to k do
            Engine.sleep_until (t_measure + (i * w.Workloads.window / k));
            let c = Host.cpu () and a = ctx.acked_window in
            Option.iter Host.Gc_spans.poll gc;
            let kt = Host.kernel () in
            let c0, a0 = !prev in
            if a > a0 then slices := ((c -. c0) /. float_of_int (a - a0), kt) :: !slices;
            let c' = Host.cpu () in
            excluded := !excluded +. (c' -. c);
            prev := (c', a)
          done;
          Engine.sleep_until t_end;
          let h1 = Host.snap () in
          gcr := Option.map Host.Gc_spans.read gc;
          peak := Host.peak_heap_mb ();
          snaps := Some (h0, h1);
          if traced then layer1 := Some (layer_snap env));
      w.Workloads.drive ~seed ctx;
      Engine.sleep_until t_end;
      drain ctx;
      check_bindings ctx;
      let h0, h1 = Option.get !snaps in
      let _, shed = ingress_totals env.cluster ~nlogs:env.nlogs in
      let layers, extras, instrument =
        match tr with
        | None -> ([], [], [])
        | Some tr ->
          let layers, extras =
            layer_metrics w ctx tr (Option.get !layer0) (Option.get !layer1) h0 h1
          in
          (layers, extras, List.rev tr.instrument_errors)
      in
      out :=
        Some
          {
            app = ctx.app;
            rd = ctx.rd;
            acked_window = ctx.acked_window;
            window_s = Engine.to_sec w.Workloads.window;
            failures =
              { Failures.calls = ctx.calls; returned_false = ctx.falses; shed };
            setup_cpu;
            excluded = !excluded;
            slices = !slices;
            h0;
            h1;
            peak_mb = !peak;
            violations = List.rev ctx.violations;
            layers;
            extras;
            instrument;
            gc = !gcr;
          };
      Engine.stop ());
  Probe.reset ();
  Option.get !out

(* Setup only: build the cluster and endpoints, time it, discard. *)
let setup_once (w : Workloads.spec) ~seed =
  let t = ref 0. in
  Engine.run ~seed (fun () ->
      let c0 = Host.cpu () in
      ignore (w.Workloads.build ~seed : env);
      t := Host.cpu () -. c0;
      Engine.stop ());
  !t

(* Simulated results two rounds of one seed must share exactly. *)
let same_sim a b =
  Samples.equal a.app b.app && Samples.equal a.rd b.rd
  && a.acked_window = b.acked_window
  && a.failures = b.failures

let cpu_s r = r.h1.Host.s_cpu -. r.h0.Host.s_cpu -. r.excluded
let wall_s r = r.h1.Host.s_wall -. r.h0.Host.s_wall
let words r = r.h1.Host.s_words -. r.h0.Host.s_words
let events r = r.h1.Host.s_events - r.h0.Host.s_events
let minors r = r.h1.Host.s_minor - r.h0.Host.s_minor

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let end_to_end ~(first : result) ~rounds ~setups =
  let q s q name = Metric.us_of_ns name (Samples.quantile s ~q) in
  let acked = float_of_int first.acked_window in
  let slices = List.concat_map (fun r -> r.slices) rounds in
  let kernel = median (List.map snd slices) in
  [
    q first.app 0.5 "append_p50_us";
    q first.app 0.99 "append_p99_us";
    q first.app 0.999 "append_p999_us";
    q first.rd 0.5 "read_p50_us";
    q first.rd 0.99 "read_p99_us";
    Metric.sim ~unit_:"1/s" "appends_per_s" (Metric.ratio acked first.window_s);
    Metric.sim ~unit_:"ratio" "fail_ratio" (Failures.ratio first.failures);
    Metric.host ~unit_:"us" "host_cpu_us_per_record"
      (Some (median (List.map (fun r -> 1e6 *. cpu_s r /. float_of_int r.acked_window) rounds)));
    Metric.host ~unit_:"us" "host_cpu_norm_us_per_record"
      (Some (1e6 *. median (List.map (fun (c, k) -> Host.normalize c ~kernel:k) slices)));
    (* From the first round: it repeats exactly per seed, while later
       rounds reuse pools the first one grew and allocate a little less. *)
    Metric.host ~unit_:"words" "alloc_words_per_record"
      (Some (words first /. acked));
    Metric.host ~unit_:"MB" "peak_heap_mb" (Some first.peak_mb);
    Metric.host ~unit_:"s" "setup_raw_s" (Some (median setups));
    Metric.host ~unit_:"s" "setup_s" (Some (Host.normalize (median setups) ~kernel));
  ]

(* Host-side per-layer metrics of the trace run: each from the untraced
   round of a pair (so tracing does not inflate them), the overhead from
   both. *)
let host_layers pairs =
  let med f = Some (median (List.map f pairs)) in
  let per_k n (u, _) = 1000. *. float_of_int n /. float_of_int u.acked_window in
  let gc_of (u, _) =
    match u.gc with
    | Some g when g.Host.Gc_spans.lost = 0 -> g
    | _ -> { Host.Gc_spans.gc_ns = nan; major_slices = 0; lost = 1 }
  in
  [
    Metric.host ~unit_:"ns" "engine.host_ns_per_event"
      (med (fun (u, _) -> 1e9 *. cpu_s u /. float_of_int (events u)));
    Metric.host ~unit_:"1/krecord" "gc.minor_per_krecord"
      (med (fun ((u, _) as p) -> per_k (minors u) p));
    Metric.host ~unit_:"1/krecord" "gc.major_slices_per_krecord"
      (med (fun p -> per_k (gc_of p).Host.Gc_spans.major_slices p));
    Metric.host ~unit_:"ratio" "gc.host_share"
      (med (fun ((u, _) as p) -> (gc_of p).Host.Gc_spans.gc_ns /. (1e9 *. wall_s u)));
    Metric.host ~unit_:"ratio" "tracing.overhead"
      (med (fun (u, t) -> cpu_s t /. cpu_s u));
  ]
