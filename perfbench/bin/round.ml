(* One measured round: a fresh simulation of a workload from setup to
   drain, its output checks, and (traced rounds) the probe-fed layer
   state. Everything the round does to the simulation is identical with
   tracing on or off — probe handlers run synchronously and schedule
   nothing — so a traced round must reproduce the untraced one. *)

open Ll_sim
open Ll_net
open Lazylog
open Perfbench_core

(* Growable int vector for the checks' bookkeeping (one word per item). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s
end

let rid_key (r : Types.Rid.t) = (r.Types.Rid.client lsl 31) lor r.Types.Rid.seq

type slot = { mutable rid : Types.Rid.t; t0 : int }

let no_rid = { Types.Rid.client = -1; seq = -1 }

type tracer = {
  wf : Waterfall.t;
  mutable pending : slot option;
  slots : (int, slot) Hashtbl.t;  (* rid key -> the benchmark's own stamps *)
  mutable instrument_errors : string list;
  mutable live_max : int;
  mutable disk_q_sum : float;
  mutable disk_q_n : int;
  mutable returned : (int * int) list;  (* rid key, reader return time *)
}

let new_tracer () =
  {
    wf = Waterfall.create ();
    pending = None;
    slots = Hashtbl.create 4096;
    instrument_errors = [];
    live_max = 0;
    disk_q_sum = 0.;
    disk_q_n = 0;
    returned = [];
  }

let instrument_error tr fmt =
  Printf.ksprintf
    (fun s ->
      if List.length tr.instrument_errors < 8 then
        tr.instrument_errors <- s :: tr.instrument_errors)
    fmt

(* The cluster and handles a workload's setup built. [tags.(h)] is the
   payload every append of handle [h] carries, so the output check can
   attribute bound records to handles. *)
type env = {
  cluster : Erwin_common.t;
  handles : Log_api.t array;
  log_of_handle : int array;
  tags : string array;
  nlogs : int;
  size : int;
}

let make_env cluster handles ~log_of_handle ~nlogs ~size =
  {
    cluster;
    handles;
    log_of_handle;
    tags = Array.init (Array.length handles) string_of_int;
    nlogs;
    size;
  }

let all_disks (c : Erwin_common.t) =
  let per_shard = 1 + c.Erwin_common.cfg.Config.shard_backup_count in
  Array.to_list c.Erwin_common.shard_index
  |> List.concat_map (fun s -> List.init per_shard (Shard.replica_disk s))

type ctx = {
  env : env;
  t_measure : int;
  t_end : int;
  window_ns : int;
  app : Samples.t;
  rd : Samples.t;
  mutable acked_window : int;
  mutable calls : int;
  mutable falses : int;
  mutable outstanding : int;
  acked_handle : int array;
  acked_log : int array;
  read_pos : Vec.t;  (* packed position, rid key: read agreement *)
  read_rid : Vec.t;
  mutable readers : int;  (* reader fibers still running *)
  mutable violations : string list;
  tr : tracer option;
}

let violation ctx fmt =
  Printf.ksprintf
    (fun s ->
      if List.length ctx.violations < 8 then ctx.violations <- s :: ctx.violations)
    fmt

let in_window ctx t = t >= ctx.t_measure && t < ctx.t_end

(* Append through the public API, timed in simulated time. Traced, the
   benchmark's own stamps around the call must equal the probe's
   [Append_invoked]/[Append_acked] for the same record. *)
let append ctx h =
  let env = ctx.env in
  let t0 = Engine.now () in
  ctx.calls <- ctx.calls + 1;
  ctx.outstanding <- ctx.outstanding + 1;
  let slot =
    match ctx.tr with
    | None -> None
    | Some tr ->
      let sl = { rid = no_rid; t0 } in
      tr.pending <- Some sl;
      Some sl
  in
  let ok = env.handles.(h).Log_api.append ~size:env.size ~data:env.tags.(h) in
  let t1 = Engine.now () in
  ctx.outstanding <- ctx.outstanding - 1;
  if ok then begin
    ctx.acked_handle.(h) <- ctx.acked_handle.(h) + 1;
    let l = env.log_of_handle.(h) in
    ctx.acked_log.(l) <- ctx.acked_log.(l) + 1;
    if in_window ctx t0 then Samples.add ctx.app (t1 - t0);
    if in_window ctx t1 then ctx.acked_window <- ctx.acked_window + 1
  end
  else ctx.falses <- ctx.falses + 1;
  (match (ctx.tr, slot) with
  | Some tr, Some sl -> (
    match Waterfall.find tr.wf sl.rid with
    | None -> instrument_error tr "append at %d has no Append_invoked" t0
    | Some s ->
      Hashtbl.replace tr.slots (rid_key sl.rid) sl;
      if s.Waterfall.invoked <> t0 || (ok && s.Waterfall.acked <> t1) then
        instrument_error tr
          "append %d.%d: timed %d->%d, probe invoked %d acked %d"
          sl.rid.Types.Rid.client sl.rid.Types.Rid.seq t0 t1
          s.Waterfall.invoked s.Waterfall.acked)
  | _ -> ());
  ok

(* A read through the public API: [len] records at per-log positions
   [from..]; [log] packs them. Checks the workload's record size and
   no-op freedom inline and keeps (position, rid) for the agreement
   check against the shards' bindings after drain. *)
let read ctx (h : Log_api.t) ~log ~from ~len =
  let t0 = Engine.now () in
  let got = h.Log_api.read ~from ~len in
  let t1 = Engine.now () in
  if in_window ctx t0 then Samples.add ctx.rd (t1 - t0);
  let n = List.length got in
  if n <> len then violation ctx "read %d+%d returned %d records" from len n;
  List.iteri
    (fun i (r : Types.record) ->
      if Types.is_no_op r then violation ctx "read a no-op at %d" (from + i)
      else if r.Types.size <> ctx.env.size then
        violation ctx "read a %d-byte record at %d" r.Types.size (from + i);
      Vec.push ctx.read_pos (Logid.pack ~log (from + i));
      Vec.push ctx.read_rid (rid_key r.Types.rid);
      match ctx.tr with
      | Some tr -> tr.returned <- (rid_key r.Types.rid, t1) :: tr.returned
      | None -> ())
    got

let stable_count (c : Erwin_common.t) l =
  Erwin_common.stable_for c ~log:l - Logid.base ~log:l

(* Wait until every append returned and every log's stable frontier
   covers its acknowledged count; a bounded wait, so a wedged pipeline
   fails the run instead of hanging it. *)
let drain ctx =
  let c = ctx.env.cluster in
  let settled () =
    ctx.outstanding = 0 && ctx.readers = 0
    &&
    let ok = ref true in
    Array.iteri (fun l n -> if stable_count c l < n then ok := false) ctx.acked_log;
    !ok
  in
  let deadline = Engine.now () + Engine.ms 200 in
  while (not (settled ())) && Engine.now () < deadline do
    Engine.sleep (Engine.us 50)
  done;
  if ctx.outstanding > 0 then
    violation ctx "%d appends still outstanding after drain" ctx.outstanding;
  Array.iteri
    (fun l n ->
      let s = stable_count c l in
      if s < n then violation ctx "log %d: stable covers %d of %d acked" l s n)
    ctx.acked_log

(* Output checks over the shards' authoritative bindings: every
   acknowledged record bound exactly once and attributed to the handle
   that appended it, nothing no-op'd, and every read agreeing with the
   binding at its position. *)
let check_bindings ctx =
  let env = ctx.env in
  let nh = Array.length env.handles in
  let bound_handle = Array.make nh 0 in
  let client_of = Array.make nh (-1) in
  let max_seq = Array.make nh 0 in
  let keys = Vec.create () in
  let at_pos = Hashtbl.create 65536 in
  let noops = ref 0 in
  Array.iter
    (fun shard ->
      List.iter
        (fun (pos, (r : Types.record)) ->
          if Types.is_no_op r then incr noops
          else begin
            let h = int_of_string r.Types.data in
            let rid = r.Types.rid in
            bound_handle.(h) <- bound_handle.(h) + 1;
            if client_of.(h) = -1 then client_of.(h) <- rid.Types.Rid.client
            else if client_of.(h) <> rid.Types.Rid.client then
              violation ctx "handle %d bound under two client ids" h;
            max_seq.(h) <- max max_seq.(h) rid.Types.Rid.seq;
            Vec.push keys (rid_key rid);
            Hashtbl.replace at_pos pos (rid_key rid)
          end)
        (Shard.bound_positions shard))
    env.cluster.Erwin_common.shard_index;
  if !noops > 0 then violation ctx "%d positions resolved to no-ops" !noops;
  let sorted = Vec.sorted keys in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then
      violation ctx "record id %d bound at two positions" sorted.(i)
  done;
  Array.iteri
    (fun h n ->
      if bound_handle.(h) <> n || max_seq.(h) > n then
        violation ctx "handle %d: %d acked, %d bound (max seq %d)" h n
          bound_handle.(h) max_seq.(h))
    ctx.acked_handle;
  for i = 0 to ctx.read_pos.Vec.n - 1 do
    let pos = ctx.read_pos.Vec.a.(i) and key = ctx.read_rid.Vec.a.(i) in
    match Hashtbl.find_opt at_pos pos with
    | Some k when k = key -> ()
    | _ -> violation ctx "read at %s disagrees with its binding" (Format.asprintf "%a" Logid.pp pos)
  done;
  let read_keys = Vec.sorted ctx.read_rid in
  for i = 1 to Array.length read_keys - 1 do
    if read_keys.(i) = read_keys.(i - 1) then
      violation ctx "reader saw record id %d twice" read_keys.(i)
  done

let ingress_totals (c : Erwin_common.t) ~nlogs =
  List.fold_left
    (fun (adm, shed) r ->
      match Seq_replica.ingress r with
      | None -> (adm, shed)
      | Some ing ->
        let a = ref adm and s = ref shed in
        for l = 0 to nlogs - 1 do
          let st = Ingress.stats ing ~log:l in
          a := !a + st.Ingress.st_admitted;
          s := !s + st.Ingress.st_shed
        done;
        (!a, !s))
    (0, 0) c.Erwin_common.replicas

(* Cluster-side counters read at the window edges (traced rounds). *)
type layer_snap = {
  msgs : int;
  bytes : int;
  rpc : Rpc.counter_snapshot;
  disk_ops : int;
  stable_total : int;
  admitted : int;
  shed : int;
  flushes : int;
  flushed : int;
}

let layer_snap (env : env) =
  let c = env.cluster in
  let admitted, shed = ingress_totals c ~nlogs:env.nlogs in
  let flushes, flushed =
    match c.Erwin_common.append_batcher with
    | Some b -> b.Erwin_common.batch_stats ()
    | None -> (0, 0)
  in
  let stable_total = ref 0 in
  for l = 0 to env.nlogs - 1 do
    stable_total := !stable_total + stable_count c l
  done;
  {
    msgs = Fabric.messages_sent c.Erwin_common.fabric;
    bytes = Fabric.bytes_sent c.Erwin_common.fabric;
    rpc = Rpc.counters ();
    disk_ops = List.fold_left (fun a d -> a + Ll_storage.Disk.ops d) 0 (all_disks c);
    stable_total = !stable_total;
    admitted;
    shed;
    flushes;
    flushed;
  }

(* Probe handler of a traced round. [Stable_advanced] also samples the
   leader's sequencing-log occupancy and the shard devices' backlog. *)
let handler ctx tr (ev : Probe.event) =
  let now = Engine.now () in
  (match ev with
  | Probe.Append_invoked { rid } -> (
    match tr.pending with
    | Some sl ->
      sl.rid <- rid;
      tr.pending <- None
    | None -> instrument_error tr "Append_invoked at %d outside a timed append" now)
  | Probe.Stable_advanced _ when in_window ctx now ->
    let c = ctx.env.cluster in
    let live = Seq_log.live_count (Seq_replica.log (Erwin_common.leader c)) in
    if live > tr.live_max then tr.live_max <- live;
    List.iter
      (fun d ->
        tr.disk_q_sum <- tr.disk_q_sum +. float_of_int (Ll_storage.Disk.queue_depth_time d);
        tr.disk_q_n <- tr.disk_q_n + 1)
      (all_disks c)
  | _ -> ());
  Waterfall.feed tr.wf ~now ev
