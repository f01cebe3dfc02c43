(* Tests for the simulation substrate: heap, engine, ivar, mailbox, waitq,
   rng, stats. *)

open Ll_sim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
      out := x :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !out)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  checkb "empty" true (Heap.pop h = None);
  Heap.push h 1;
  check "len" 1 (Heap.length h);
  Heap.clear h;
  check "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* --- Engine --- *)

let test_clock_advances () =
  let times = ref [] in
  Engine.run (fun () ->
      times := Engine.now () :: !times;
      Engine.sleep (Engine.us 5);
      times := Engine.now () :: !times;
      Engine.sleep (Engine.ms 1);
      times := Engine.now () :: !times);
  Alcotest.(check (list int))
    "timestamps" [ 0; 5_000; 1_005_000 ] (List.rev !times)

let test_spawn_ordering () =
  (* Fibers scheduled at the same instant run in spawn order. *)
  let order = ref [] in
  Engine.run (fun () ->
      Engine.spawn (fun () -> order := 1 :: !order);
      Engine.spawn (fun () -> order := 2 :: !order);
      Engine.spawn (fun () -> order := 3 :: !order));
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order)

let test_determinism () =
  let run () =
    let trace = ref [] in
    Engine.run ~seed:99 (fun () ->
        let rng = Engine.random_state () in
        for _ = 1 to 5 do
          let d = Random.State.int rng 100 in
          Engine.spawn (fun () ->
              Engine.sleep (Engine.us d);
              trace := (Engine.now (), d) :: !trace)
        done);
    !trace
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

(* One workload with a 6-way tie at a single instant: the order in which
   the tied fibers run is the schedule under test. *)
let tie_trace ?(perturb = false) seed =
  let trace = ref [] in
  Engine.run ~seed ~perturb (fun () ->
      for i = 1 to 6 do
        Engine.spawn (fun () ->
            Engine.sleep (Engine.us 10);
            trace := i :: !trace)
      done);
  List.rev !trace

let test_perturb_deterministic () =
  (* Same seed -> same tie-breaking; unperturbed -> spawn (FIFO) order. *)
  Alcotest.(check (list int))
    "unperturbed is FIFO" [ 1; 2; 3; 4; 5; 6 ] (tie_trace 1);
  for seed = 1 to 5 do
    Alcotest.(check (list int))
      "perturbed run reproduces"
      (tie_trace ~perturb:true seed)
      (tie_trace ~perturb:true seed)
  done

let test_perturb_explores () =
  (* Across a handful of seeds, at least one must deviate from FIFO and
     two seeds must disagree — otherwise the perturbation is a no-op. *)
  let traces = List.init 8 (fun s -> tie_trace ~perturb:true (s + 1)) in
  checkb "some schedule differs from FIFO" true
    (List.exists (fun t -> t <> [ 1; 2; 3; 4; 5; 6 ]) traces);
  checkb "seeds explore distinct schedules" true
    (List.exists (fun t -> t <> List.hd traces) traces);
  List.iter
    (fun t ->
      Alcotest.(check (list int))
        "every schedule is a permutation" [ 1; 2; 3; 4; 5; 6 ]
        (List.sort compare t))
    traces

let test_parallel_domains () =
  (* Engine state is domain-local: independent simulations may run
     concurrently on separate domains, each fully deterministic. *)
  let sim seed =
    let acc = ref 0 in
    Engine.run ~seed ~perturb:true (fun () ->
        for i = 1 to 50 do
          Engine.spawn (fun () ->
              Engine.sleep (Engine.us (Random.State.int (Engine.random_state ()) 100));
              acc := !acc + i)
        done);
    (!acc, Engine.events_executed (), Engine.master_seed ())
  in
  let expected = List.init 4 (fun i -> sim (i + 1)) in
  let domains = List.init 4 (fun i -> Domain.spawn (fun () -> sim (i + 1))) in
  let got = List.map Domain.join domains in
  List.iteri
    (fun i ((a, e, s), (a', e', s')) ->
      check "sum matches" a a';
      check "event count matches" e e';
      check "seed recorded" (i + 1) s;
      check "seed recorded in domain" (i + 1) s')
    (List.combine expected got)

let test_until () =
  let reached = ref false in
  Engine.run ~until:(Engine.ms 1) (fun () ->
      Engine.sleep (Engine.ms 10);
      reached := true);
  checkb "not reached past until" false !reached

let test_exception_propagates () =
  let boom () =
    Engine.run (fun () ->
        Engine.spawn (fun () ->
            Engine.sleep 10;
            failwith "boom"))
  in
  (match boom () with
  | () -> Alcotest.fail "expected exception"
  | exception Engine.Fiber_failure (_, Failure m) ->
    Alcotest.(check string) "message" "boom" m
  | exception e -> raise e);
  (* The engine must be usable again after an aborted run. *)
  Engine.run (fun () -> Engine.sleep 1)

(* A fiber's failure carries its own name whichever way it was last
   resumed: from a sleep (a bare continuation cell) or from a wake (the
   waker as the cell). Checked under both schedulers, whose resume paths
   differ. *)
let failing_fiber_name body =
  match Engine.run (fun () -> Engine.spawn ~name:"victim" body) with
  | () -> Alcotest.fail "expected Fiber_failure"
  | exception Engine.Fiber_failure (name, Failure m) ->
    Alcotest.(check string) "message" "boom" m;
    name

let on_both_schedulers f =
  let prev = Engine.scheduler () in
  Fun.protect
    ~finally:(fun () -> Engine.set_scheduler prev)
    (fun () ->
      List.iter
        (fun sched ->
          Engine.set_scheduler sched;
          f ())
        [ `Wheel; `Heap ])

let test_failure_names_fiber_after_sleep () =
  on_both_schedulers (fun () ->
      Alcotest.(check string)
        "name" "victim"
        (failing_fiber_name (fun () ->
             Engine.spawn ~name:"bystander" (fun () -> Engine.sleep 20);
             Engine.sleep 10;
             failwith "boom")))

let test_failure_names_fiber_after_wake () =
  on_both_schedulers (fun () ->
      Alcotest.(check string)
        "name" "victim"
        (failing_fiber_name (fun () ->
             let v =
               Engine.suspend (fun w ->
                   Engine.call_after 10 (fun () ->
                       ignore (Engine.wake w 7 : bool)))
             in
             if v = 7 then failwith "boom")))

(* --- The callback contract --- *)

(* A bare callback has no effect handler above it: blocking there is the
   bug the contract forbids, and it must abort the run, not go unnoticed. *)
let test_callback_sleep_aborts () =
  on_both_schedulers (fun () ->
      match
        Engine.run (fun () ->
            Engine.call_after 5 (fun () -> Engine.sleep 1))
      with
      | () -> Alcotest.fail "a callback slept"
      | exception Effect.Unhandled _ -> ())

(* [Engine.fiber] runs its body in place: before the callback that
   started it resumes, and before every other cell of the same instant —
   even one scheduled earlier. The body then blocks like any fiber. *)
let test_fiber_in_place () =
  let trace = ref [] in
  let log what = trace := (Engine.now (), what) :: !trace in
  let started = ref 0 in
  Engine.run (fun () ->
      let wq = Waitq.create () and ready = ref false in
      Engine.call_at 10 (fun () ->
          Engine.call_at 10 (fun () -> log "same-instant cell");
          let f0 = Engine.fiber_count () in
          Engine.fiber ~name:"in-place" (fun () ->
              log "body";
              Engine.sleep 5;
              log "slept";
              Waitq.await wq (fun () -> !ready);
              log "woken");
          started := Engine.fiber_count () - f0;
          log "fiber returned");
      Engine.call_at 20 (fun () ->
          ready := true;
          Waitq.broadcast wq));
  check "one fiber started" 1 !started;
  Alcotest.(check (list (pair int string)))
    "trace"
    [
      (10, "body");
      (10, "fiber returned");
      (10, "same-instant cell");
      (15, "slept");
      (20, "woken");
    ]
    (List.rev !trace)

(* A spawn is one fiber-start cell, whoever asks: from a callback it lands
   at the same (at, seq) — and under perturbation takes the same tie draw
   — as from a fiber, so the executed traces agree event for event. *)
let spawn_trace ~from_callback ~perturb =
  let trace = ref [] in
  let log what = trace := (Engine.now (), Engine.events_executed (), what) :: !trace in
  let cells prefix =
    for i = 0 to 2 do
      Engine.call_at 10 (fun () -> log (Printf.sprintf "%s%d" prefix i))
    done
  in
  Engine.run ~seed:7 ~perturb (fun () ->
      cells "before";
      let spawner () =
        log "spawner";
        Engine.spawn (fun () -> log "child");
        cells "after"
      in
      if from_callback then Engine.call_at 10 spawner else Engine.at 10 spawner;
      cells "tail");
  List.rev !trace

let test_spawn_from_callback () =
  let labels tr = List.map (fun (_, _, l) -> l) tr in
  List.iter
    (fun perturb ->
      let from_fiber = spawn_trace ~from_callback:false ~perturb in
      let from_callback = spawn_trace ~from_callback:true ~perturb in
      Alcotest.(check (list string))
        "same labels" (labels from_fiber) (labels from_callback);
      checkb "same (time, event, label) trace" true (from_fiber = from_callback))
    [ false; true ];
  (* Unperturbed, the child queues behind every cell already scheduled
     for the instant and ahead of those scheduled after the spawn. *)
  Alcotest.(check (list string))
    "FIFO position"
    [ "before0"; "before1"; "before2"; "spawner"; "tail0"; "tail1"; "tail2";
      "child"; "after0"; "after1"; "after2" ]
    (labels (spawn_trace ~from_callback:true ~perturb:false))

let test_wake_once () =
  Engine.run (fun () ->
      let woken = ref 0 in
      Engine.spawn (fun () ->
          let v =
            Engine.suspend (fun w ->
                Engine.after 10 (fun () ->
                    if Engine.wake w 1 then incr woken);
                Engine.after 20 (fun () ->
                    if Engine.wake w 2 then incr woken))
          in
          Alcotest.(check int) "first wake wins" 1 v);
      Engine.sleep 100;
      Alcotest.(check int) "woken once" 1 !woken)

(* --- Ivar --- *)

let test_ivar_basic () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      checkb "empty" false (Ivar.is_full iv);
      let got = ref [] in
      for i = 0 to 2 do
        Engine.spawn (fun () ->
            (* Bind before consing: the read suspends, and [!got] must be
               re-read after resumption. *)
            let v = Ivar.read iv in
            got := (i, v) :: !got)
      done;
      Engine.after (Engine.us 3) (fun () -> Ivar.fill iv 42);
      Engine.sleep (Engine.us 10);
      check "all readers woken" 3 (List.length !got);
      checkb "all read 42" true (List.for_all (fun (_, v) -> v = 42) !got);
      checkb "double fill refused" false (Ivar.try_fill iv 1))

let test_ivar_timeout () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      let r = Ivar.read_timeout iv ~timeout:(Engine.us 5) in
      checkb "timed out" true (r = None);
      Ivar.fill iv 7;
      checkb "filled now" true
        (Ivar.read_timeout iv ~timeout:(Engine.us 1) = Some 7))

let test_join_all_timeout () =
  Engine.run (fun () ->
      let a = Ivar.create () and b = Ivar.create () in
      Engine.after 5 (fun () -> Ivar.fill a 1);
      checkb "partial fill times out" true
        (Ivar.join_all_timeout [ a; b ] ~timeout:(Engine.us 1) = None);
      Ivar.fill b 2;
      checkb "both" true
        (Ivar.join_all_timeout [ a; b ] ~timeout:(Engine.us 1) = Some [ 1; 2 ]))

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      List.iter (Mailbox.send mb) [ 1; 2; 3 ];
      check "fifo 1" 1 (Mailbox.recv mb);
      check "fifo 2" 2 (Mailbox.recv mb);
      check "fifo 3" 3 (Mailbox.recv mb))

let test_mailbox_blocking_receivers () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let got = ref [] in
      for i = 0 to 1 do
        Engine.spawn (fun () ->
            let m = Mailbox.recv mb in
            got := (i, m) :: !got)
      done;
      Engine.after 5 (fun () ->
          Mailbox.send mb "a";
          Mailbox.send mb "b");
      Engine.sleep 20;
      (* Receivers are served in blocking order. *)
      Alcotest.(check (list (pair int string)))
        "each receiver one message"
        [ (0, "a"); (1, "b") ]
        (List.sort compare !got))

let test_mailbox_timeout_then_send () =
  (* A waiter whose timeout fired must not swallow a later message. *)
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let r1 = Mailbox.recv_timeout mb ~timeout:5 in
      Alcotest.(check bool) "timed out" true (r1 = None);
      Mailbox.send mb 9;
      check "message preserved" 9 (Mailbox.recv mb))

(* A callback consumer drains without a fiber. A message handed over to
   the parked consumer is no longer queued, so a [clear] before the
   consumer runs keeps it — as a value passed to a woken receiver. *)
let test_mailbox_consumer () =
  let got = ref [] in
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let rec consume () =
        if Mailbox.ready mb then begin
          got := (Engine.now (), Mailbox.take mb) :: !got;
          consume ()
        end
        else Mailbox.park_consumer mb
      in
      Mailbox.set_consumer mb consume;
      Mailbox.send mb 1;
      consume ();
      Engine.sleep 5;
      Mailbox.send mb 2;
      Mailbox.send mb 3;
      Mailbox.clear mb;
      Engine.sleep 5;
      Mailbox.send mb 4);
  Alcotest.(check (list (pair int int)))
    "handed-over message survives clear, queued one does not"
    [ (0, 1); (5, 2); (10, 4) ]
    (List.rev !got)

(* A fiber receiver would race the consumer for the same messages: every
   receive on a consumer's mailbox is refused. *)
let test_mailbox_consumer_excludes_receivers () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      Mailbox.set_consumer mb (fun () -> ());
      Mailbox.send mb 1;
      List.iter
        (fun (name, receive) ->
          match receive () with
          | () -> Alcotest.failf "%s received from a consumer's mailbox" name
          | exception Invalid_argument _ -> ())
        [
          ("recv", fun () -> ignore (Mailbox.recv mb : int));
          ( "recv_timeout",
            fun () -> ignore (Mailbox.recv_timeout mb ~timeout:1 : int option)
          );
          ("try_recv", fun () -> ignore (Mailbox.try_recv mb : int option));
        ];
      check "message still queued" 1 (Mailbox.length mb))

(* --- Waitq --- *)

let test_waitq () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let flag = ref false in
      let through = ref false in
      Engine.spawn (fun () ->
          Waitq.await wq (fun () -> !flag);
          through := true);
      Engine.sleep 5;
      checkb "blocked" false !through;
      (* broadcast without predicate change: must keep waiting *)
      Waitq.broadcast wq;
      Engine.sleep 5;
      checkb "still blocked" false !through;
      flag := true;
      Waitq.broadcast wq;
      Engine.sleep 5;
      checkb "released" true !through)

(* Fibers and [await_k] callbacks share one FIFO: a broadcast wakes them
   in the order they parked, whatever their kind, and a callback whose
   predicate still fails re-parks. *)
let test_waitq_await_k_order () =
  let order = ref [] in
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let open_ = ref false in
      let note x = order := x :: !order in
      Engine.spawn (fun () ->
          Waitq.await wq (fun () -> !open_);
          note "fiber1");
      Engine.call_after 1 (fun () ->
          Waitq.await_k wq (fun () -> !open_) (fun () -> note "callback"));
      Engine.after 2 (fun () ->
          Waitq.await wq (fun () -> !open_);
          note "fiber2");
      Engine.sleep 5;
      check "three parked" 3 (Waitq.waiters wq);
      Waitq.broadcast wq;
      Engine.sleep 1;
      check "all re-parked" 3 (Waitq.waiters wq);
      open_ := true;
      Waitq.broadcast wq;
      Engine.sleep 1;
      check "none parked" 0 (Waitq.waiters wq);
      let ran = ref false in
      Waitq.await_k wq (fun () -> true) (fun () -> ran := true);
      checkb "ready predicate runs at once" true !ran);
  Alcotest.(check (list string))
    "wake order" [ "fiber1"; "callback"; "fiber2" ] (List.rev !order)

let test_waitq_timeout () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let ok = Waitq.await_timeout wq ~timeout:(Engine.us 5) (fun () -> false) in
      checkb "predicate false on timeout" false ok)

(* --- Rng --- *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:100.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean within 5%" true (mean > 95.0 && mean < 105.0)

let test_zipf_bounds_and_skew () =
  let rng = Rng.create ~seed:6 in
  let g = Rng.Zipf.create rng ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.next g in
    checkb "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Hottest key should be much hotter than the median key. *)
  let hottest = Array.fold_left max 0 counts in
  checkb "skewed" true (hottest > 50_000 / 100)

(* --- Stats --- *)

let test_reservoir_percentiles () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 100 do
    Stats.Reservoir.add r (i * 1000)
  done;
  Alcotest.(check (float 0.1)) "mean" 50.5 (Stats.Reservoir.mean_us r);
  Alcotest.(check (float 0.5)) "p50" 50.5 (Stats.Reservoir.percentile_us r 50.0);
  Alcotest.(check (float 1.5)) "p99" 99.0 (Stats.Reservoir.percentile_us r 99.0);
  Alcotest.(check (float 0.01)) "min" 1.0 (Stats.Reservoir.min_us r);
  Alcotest.(check (float 0.01)) "max" 100.0 (Stats.Reservoir.max_us r)

let test_reservoir_cdf () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 1000 do
    Stats.Reservoir.add r i
  done;
  let cdf = Stats.Reservoir.cdf r ~points:10 in
  check "10 points" 10 (List.length cdf);
  let _, last_pct = List.nth cdf 9 in
  Alcotest.(check (float 0.01)) "ends at 100%" 100.0 last_pct

let test_timeline () =
  let tl = Stats.Timeline.create ~bin:(Engine.ms 1) in
  for i = 0 to 99 do
    Stats.Timeline.record tl ~at:(i * Engine.us 10)
  done;
  check "total" 100 (Stats.Timeline.total tl);
  match Stats.Timeline.series tl with
  | [ (_, rate) ] -> Alcotest.(check (float 1.0)) "rate" 100_000.0 rate
  | l -> Alcotest.failf "expected one bin, got %d" (List.length l)

let test_reservoir_merge () =
  let a = Stats.Reservoir.create () and b = Stats.Reservoir.create () in
  List.iter (Stats.Reservoir.add a) [ 1000; 2000 ];
  List.iter (Stats.Reservoir.add b) [ 3000; 4000 ];
  let m = Stats.Reservoir.merge [ a; b ] in
  check "count" 4 (Stats.Reservoir.count m);
  Alcotest.(check (float 0.01)) "mean" 2.5 (Stats.Reservoir.mean_us m)

let test_reservoir_stddev_and_clear () =
  let r = Stats.Reservoir.create () in
  List.iter (Stats.Reservoir.add r) [ 1000; 1000; 1000 ];
  Alcotest.(check (float 0.001)) "no spread" 0.0 (Stats.Reservoir.stddev_us r);
  Stats.Reservoir.clear r;
  check "cleared" 0 (Stats.Reservoir.count r);
  checkb "mean of empty is nan" true (Float.is_nan (Stats.Reservoir.mean_us r))

let test_timeline_multi_bin () =
  let tl = Stats.Timeline.create ~bin:(Engine.ms 1) in
  Stats.Timeline.record_n tl ~at:(Engine.us 500) ~n:10;
  Stats.Timeline.record_n tl ~at:(Engine.us 2_500) ~n:30;
  (match Stats.Timeline.series tl with
  | [ (t0, r0); (t1, r1) ] ->
    Alcotest.(check (float 1e-6)) "bin 0 time" 0.0 t0;
    Alcotest.(check (float 1.0)) "bin 0 rate" 10_000.0 r0;
    Alcotest.(check (float 1e-6)) "bin 2 time" 0.002 t1;
    Alcotest.(check (float 1.0)) "bin 2 rate" 30_000.0 r1
  | l -> Alcotest.failf "expected 2 bins, got %d" (List.length l));
  check "total" 40 (Stats.Timeline.total tl)

let test_at_clamps_past () =
  Engine.run (fun () ->
      Engine.sleep (Engine.us 10);
      let ran_at = ref (-1) in
      (* Scheduling in the past runs "now", never back in time. *)
      Engine.at 0 (fun () -> ran_at := Engine.now ());
      Engine.sleep 1;
      check "clamped to now" (Engine.us 10) !ran_at)

let test_sleep_until_past_is_yield () =
  Engine.run (fun () ->
      Engine.sleep (Engine.us 5);
      Engine.sleep_until 0;
      check "no time travel" (Engine.us 5) (Engine.now ()))

let test_rng_split_independence () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  checkb "streams differ" true (xs <> ys)

let prop_percentile_monotonic =
  QCheck.Test.make ~name:"percentiles are monotonic" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 200) (int_range 0 1_000_000))
    (fun xs ->
      let r = Stats.Reservoir.create () in
      List.iter (Stats.Reservoir.add r) xs;
      let ps = [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Stats.Reservoir.percentile_us r) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vs)

(* --- Allocation budgets ---

   Minor words per operation are deterministic for a given build, so they
   can be pinned: each budget sits just above the current cost, and a
   change that brings back a per-operation closure or effect block fails
   here rather than as a slow drift in the benchmarks. *)

let noop () = ()

(* Minor words per [op], averaged over [n] runs inside one fiber; one
   warm-up [op] and all setup stay outside the window. *)
let words_per_op op =
  let n = 10_000 in
  let r = ref 0.0 in
  Engine.run (fun () ->
      op ();
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        op ()
      done;
      r := (Gc.minor_words () -. w0) /. float_of_int n);
  !r

let check_budget what ~budget words =
  if words > budget then
    Alcotest.failf "%s: %.2f words/op over the budget of %.1f" what words
      budget

let test_sleep_words () =
  check_budget "sleep" ~budget:2.5 (words_per_op (fun () -> Engine.sleep 1))

(* A spawn plus the child's whole life (start, run, return), net of the
   yield that lets the child run. *)
let test_spawn_words () =
  let with_child =
    words_per_op (fun () ->
        Engine.spawn noop;
        Engine.yield ())
  in
  check_budget "spawn" ~budget:16.0 (with_child -. words_per_op Engine.yield)

(* Two fibers ping-pong over fresh ivars: each op creates an ivar, parks a
   reader on it and fills it from the other fiber. *)
let test_ivar_words () =
  let n = 10_000 in
  let words = ref 0.0 in
  Engine.run (fun () ->
      let ping = ref (Ivar.create ()) and pong = ref (Ivar.create ()) in
      Engine.spawn (fun () ->
          for _ = 1 to n do
            Ivar.fill !ping ();
            Ivar.read !pong;
            pong := Ivar.create ()
          done);
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Ivar.read !ping;
        ping := Ivar.create ();
        Ivar.fill !pong ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int (2 * n));
  check_budget "ivar suspend+fill" ~budget:19.0 !words

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pops sorted" `Quick test_heap_order;
          Alcotest.test_case "empty/clear" `Quick test_heap_empty;
        ]
        @ qc [ prop_heap_sorts ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "spawn order" `Quick test_spawn_ordering;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "perturbation deterministic per seed" `Quick
            test_perturb_deterministic;
          Alcotest.test_case "perturbation explores schedules" `Quick
            test_perturb_explores;
          Alcotest.test_case "parallel domain engines" `Quick
            test_parallel_domains;
          Alcotest.test_case "until bounds run" `Quick test_until;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "failure names the fiber after a sleep" `Quick
            test_failure_names_fiber_after_sleep;
          Alcotest.test_case "failure names the fiber after a wake" `Quick
            test_failure_names_fiber_after_wake;
          Alcotest.test_case "waker fires once" `Quick test_wake_once;
          Alcotest.test_case "sleep from a callback aborts the run" `Quick
            test_callback_sleep_aborts;
          Alcotest.test_case "fiber from a callback runs in place" `Quick
            test_fiber_in_place;
          Alcotest.test_case "spawn from a callback matches a fiber's" `Quick
            test_spawn_from_callback;
          Alcotest.test_case "at clamps past times" `Quick test_at_clamps_past;
          Alcotest.test_case "sleep_until past is a yield" `Quick
            test_sleep_until_past_is_yield;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill wakes all" `Quick test_ivar_basic;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
          Alcotest.test_case "join_all_timeout" `Quick test_join_all_timeout;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking receivers" `Quick
            test_mailbox_blocking_receivers;
          Alcotest.test_case "timeout does not lose messages" `Quick
            test_mailbox_timeout_then_send;
          Alcotest.test_case "callback consumer" `Quick test_mailbox_consumer;
          Alcotest.test_case "consumer excludes receivers" `Quick
            test_mailbox_consumer_excludes_receivers;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "await/broadcast" `Quick test_waitq;
          Alcotest.test_case "await timeout" `Quick test_waitq_timeout;
          Alcotest.test_case "await_k shares the FIFO" `Quick
            test_waitq_await_k_order;
        ] );
      ( "rng",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "zipf bounds and skew" `Quick
            test_zipf_bounds_and_skew;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_reservoir_percentiles;
          Alcotest.test_case "cdf" `Quick test_reservoir_cdf;
          Alcotest.test_case "timeline" `Quick test_timeline;
          Alcotest.test_case "merge" `Quick test_reservoir_merge;
          Alcotest.test_case "stddev and clear" `Quick
            test_reservoir_stddev_and_clear;
          Alcotest.test_case "timeline multi-bin" `Quick
            test_timeline_multi_bin;
        ]
        @ qc [ prop_percentile_monotonic ] );
      ( "alloc",
        [
          Alcotest.test_case "sleep" `Quick test_sleep_words;
          Alcotest.test_case "spawn" `Quick test_spawn_words;
          Alcotest.test_case "ivar suspend+fill" `Quick test_ivar_words;
        ] );
    ]
