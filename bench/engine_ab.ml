(* Engine A/B microharness: user-CPU-time measurement of the engine
   workloads from micro.ml. Wall-clock on a shared 1-vCPU box includes
   host steal time (see /proc/stat field 8), which swings 2x run to run;
   [Unix.times] user time excludes it, so this is the number to trust
   when comparing two engine builds. Usage:

     engine_ab.exe <workload> <n-events> <reps>

   Workloads: timer-callback | mixed-hop | deep-timer | deep-fiber |
   ready-ivar | ready-mailbox | rpc-hop | seq-log | seq-log-100k | itbl |
   itbl-600k

   Each rep prints CPU ns/op next to minor words/op ([Gc.minor_words]
   over the whole run, setup included): allocation is deterministic, so
   the words column compares two builds exactly where the CPU column
   only compares them within noise. *)

let callback_chains n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              ((((c * 31) + i) mod 97) + 1)
              (fun () -> step (i + 1))
        in
        step 0
      done)

let mixed_hops n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec hop i =
          if i < per then begin
            let r = ((c * 131) + (i * 7919)) mod 1000 in
            let d =
              if r < 700 then (r / 8) + 1
              else if r < 950 then ((r - 700) * 400) + 1000
              else ((r - 950) * 200_000) + 1_000_000
            in
            Engine.call_after d (fun () -> hop (i + 1))
          end
        in
        hop 0
      done)

let deep_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.call_after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

let deep_fiber_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

(* Already-ready waits: the hot path every RPC reply and every drained
   queue hits — the ivar is full (or the mailbox non-empty) by the time
   the consumer blocks, so [read]/[recv] must return inline without a
   suspend/resume round trip through the scheduler. Engine.events stays
   near-flat here; the interesting number is ns per wait (wall-cpu /
   n), printed alongside the event rate. *)

let ready_ivar n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      for _i = 1 to n do
        let iv = Ivar.create () in
        Ivar.fill iv 42;
        ignore (Ivar.read iv : int)
      done)

let ready_mailbox n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let mb = Mailbox.create () in
      for i = 1 to n do
        Mailbox.send mb i;
        ignore (Mailbox.recv mb : int)
      done)

(* One RPC round trip per op, with a service time on the server: request
   send, fabric delivery, demux, service-time timer, handler callback,
   reply, response demux and the caller's ivar wake — the hop every
   protocol message in the cluster pays. The handler never blocks, so it
   runs as a bare callback. *)
let rpc_hops n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_net in
      let fab = Fabric.create () in
      let sn = Fabric.add_node fab ~name:"server" () in
      let cn = Fabric.add_node fab ~name:"client" () in
      let server = Rpc.endpoint fab sn in
      let client = Rpc.endpoint fab cn in
      Rpc.set_service_time server (fun _ -> 100);
      Rpc.set_handler server (fun ~src:_ req ~reply -> reply (req + 1));
      let dst = Fabric.id sn in
      for i = 1 to n do
        ignore (Rpc.call client ~dst i : int)
      done)

(* One sequencing-log entry per op, no engine: [clients] round-robin
   producers append a batch of 64, the orderer claims it and GC removes
   it (append + claim + remove_ordered, as on a replica). The driver
   allocates each entry, the rid list and the claimed array itself. *)
let seq_log_cycles ~clients n =
  let open Lazylog in
  let t = Seq_log.create ~capacity:1_000_000 in
  let batch = 64 in
  let seqs = Array.make clients 0 in
  for i = 0 to (n / batch) - 1 do
    for k = 0 to batch - 1 do
      let c = ((i * batch) + k) mod clients in
      seqs.(c) <- seqs.(c) + 1;
      let rid = { Types.Rid.client = c; seq = seqs.(c) } in
      ignore
        (Seq_log.try_append t (Types.Data (Types.record ~rid ~size:64 ()))
          : Seq_log.append_result option)
    done;
    let claimed = Seq_log.claim_unordered t ~max:batch in
    Seq_log.remove_ordered t
      (Array.fold_right (fun e acc -> Types.entry_rid e :: acc) claimed [])
  done

(* One [Itbl.find] + [Itbl.replace] of an existing key per op, no engine:
   the fabric's per-message FIFO step. Keys are packed links
   [(src lsl 20) lor dst], visited in a stride order so that a large
   table is not walked sequentially; the table is built once, before the
   warmup, so words/op count only the ops. [keys = 600_000] is the
   number of directed links on the open-100k benchmark workload. *)
let itbl_cycles ~keys =
  let open Ll_sim in
  let order =
    Array.init keys (fun i ->
        let j = i * 7919 mod keys in
        ((j / 6) lsl 20) lor (j mod 6))
  in
  let t = Itbl.create () in
  Array.iteri (fun i k -> Itbl.replace t k i) order;
  fun n ->
    let j = ref 0 in
    for _ = 1 to n do
      let k = Array.unsafe_get order !j in
      Itbl.replace t k (Itbl.find t k + 1);
      j := if !j + 1 = keys then 0 else !j + 1
    done

let () =
  let workload = Sys.argv.(1) in
  let n = int_of_string Sys.argv.(2) in
  let reps = int_of_string Sys.argv.(3) in
  let f =
    match workload with
    | "timer-callback" -> callback_chains
    | "mixed-hop" -> mixed_hops
    | "deep-timer" -> deep_timers
    | "deep-fiber" -> deep_fiber_timers
    | "ready-ivar" -> ready_ivar
    | "ready-mailbox" -> ready_mailbox
    | "rpc-hop" -> rpc_hops
    | "seq-log" -> seq_log_cycles ~clients:8
    | "seq-log-100k" -> seq_log_cycles ~clients:100_000
    | "itbl" -> itbl_cycles ~keys:8
    | "itbl-600k" -> itbl_cycles ~keys:600_000
    | w -> failwith ("unknown workload: " ^ w)
  in
  Ll_sim.Engine.set_scheduler `Wheel;
  f (n / 10) (* warmup *);
  let best = ref infinity in
  let wpo = ref 0.0 in
  for r = 1 to reps do
    let w0 = Gc.minor_words () in
    let t0 = (Unix.times ()).tms_utime in
    f n;
    let dt = (Unix.times ()).tms_utime -. t0 in
    let words = Gc.minor_words () -. w0 in
    let ev = Ll_sim.Engine.events_executed () in
    let rate = float_of_int ev /. dt /. 1e6 in
    if dt < !best then best := dt;
    wpo := words /. float_of_int n;
    Printf.printf
      "  rep %d: %d events  %.1f ms cpu  %.2f Mev/s  %.1f ns/op  %.1f words/op\n%!"
      r ev (dt *. 1000.) rate
      (dt *. 1e9 /. float_of_int n)
      !wpo
  done;
  Printf.printf
    "%s best: %.1f ms cpu (%.1f ns/op, %.1f words/op over %d ops)\n%!" workload
    (!best *. 1000.) (!best *. 1e9 /. float_of_int n) !wpo n
