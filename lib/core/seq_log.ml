open Ll_sim

module Ring_buffer = Ll_storage.Ring_buffer

type t = {
  capacity : int;
  (* Slot -> live entry. The ring's head is the lowest live slot and its
     tail the next slot; GC punches holes and the head skips them. *)
  ring : Types.entry Ring_buffer.t;
  by_rid : int Types.Rid_tbl.t;  (* live rid -> slot *)
  (* Client -> max ordered seq, -1 for none. Client ids are dense (drawn
     from a counter), so this is an array, doubled on demand. *)
  mutable ordered_seq : int array;
  mutable live : int;
  mutable gp : int;
  (* Multi-log fabric: per-log last-ordered frontier and live count for
     logs beyond 0 (log 0 stays in the scalar [gp] / implied live count,
     so the single-log path is untouched). Frontiers are packed positions
     ({!Logid}). *)
  gps : int Itbl.t;
  live_logs : int Itbl.t;
  mutable live_other : int;  (* total live entries in logs > 0 *)
  (* Pipelined ordering: slots below [claimed] belong to an in-flight
     ordering batch and must not be claimed again; [claimed_live] counts
     the live entries among them. *)
  mutable claimed : int;
  mutable claimed_live : int;
  space : Waitq.t;
}

let create ~capacity =
  {
    capacity;
    ring = Ring_buffer.create ~capacity:1024 ();
    by_rid = Types.Rid_tbl.create ();
    ordered_seq = Array.make 64 (-1);
    live = 0;
    gp = 0;
    gps = Itbl.create ();
    live_logs = Itbl.create ();
    live_other = 0;
    claimed = 0;
    claimed_live = 0;
    space = Waitq.create ();
  }

type append_result = Appended | Duplicate

(* Request ids are non-negative, so the -1 of an unseen client orders
   nothing. *)
let already_ordered t (rid : Types.Rid.t) =
  let c = rid.client in
  c >= 0
  && c < Array.length t.ordered_seq
  && rid.seq <= Array.unsafe_get t.ordered_seq c

let is_duplicate t rid =
  Types.Rid_tbl.mem t.by_rid rid || already_ordered t rid

let bump_live t lg d =
  if lg <> 0 then begin
    t.live_other <- t.live_other + d;
    let cur =
      match Itbl.find t.live_logs lg with n -> n | exception Not_found -> 0
    in
    Itbl.replace t.live_logs lg (cur + d)
  end

let do_append t e =
  let slot = Ring_buffer.append t.ring e in
  (* Callers filter duplicates first, so the rid is not bound yet. *)
  Types.Rid_tbl.replace t.by_rid (Types.entry_rid e) slot;
  t.live <- t.live + 1;
  bump_live t (Types.entry_log e) 1

let try_append t e =
  let rid = Types.entry_rid e in
  if is_duplicate t rid then Some Duplicate
  else if t.live >= t.capacity then None
  else begin
    do_append t e;
    Some Appended
  end

let append_wait t e =
  let rid = Types.entry_rid e in
  if is_duplicate t rid then Duplicate
  else begin
    Waitq.await t.space (fun () -> t.live < t.capacity || is_duplicate t rid);
    if is_duplicate t rid then Duplicate
    else begin
      do_append t e;
      Appended
    end
  end

let admits t e = t.live < t.capacity || is_duplicate t (Types.entry_rid e)

let append_or_wait t e ~cancel =
  let rid = Types.entry_rid e in
  let ready () = cancel () || admits t e in
  Waitq.await t.space ready;
  if is_duplicate t rid then Some Duplicate
  else if cancel () then None
  else begin
    do_append t e;
    Some Appended
  end

(* Group-commit ingress: the whole batch is admitted atomically. We wait
   until the log has room for every non-duplicate entry of the batch (so a
   batch never half-appends under backpressure), then run one
   duplicate-filter pass that appends the fresh entries back-to-back.
   Cancellation (seal / view change) while waiting fails the batch as a
   unit: no entry is appended. Assumes the batch is far smaller than
   [capacity] (flush triggers bound it). *)
let admits_batch t entries =
  let fresh =
    List.fold_left
      (fun acc e ->
        if is_duplicate t (Types.entry_rid e) then acc else acc + 1)
      0 entries
  in
  t.live + fresh <= t.capacity

let append_batch_or_wait t entries ~cancel =
  Waitq.await t.space (fun () -> cancel () || admits_batch t entries);
  if cancel () then None
  else
    (* One pass: a rid appearing twice inside the batch registers on the
       first occurrence and filters the second. *)
    Some
      (List.map
         (fun e ->
           if is_duplicate t (Types.entry_rid e) then Duplicate
           else begin
             do_append t e;
             Appended
           end)
         entries)

let kick t = Waitq.broadcast t.space

let unordered t ?max () =
  let limit = match max with Some m -> m | None -> t.live in
  let acc = ref [] in
  ignore
    (Ring_buffer.iter_from t.ring ~from:(Ring_buffer.head t.ring) ~max:limit
       (fun e -> acc := e :: !acc)
      : int);
  List.rev !acc

let live_count t = t.live

let unclaimed_count t = t.live - t.claimed_live

(* Claim up to [max] live entries for an in-flight ordering batch, in log
   order, starting after the previous claim. Returns an array (the
   orderer's hot path): one bounded scan, no list rebuild. Claimed entries
   stay live (they still hold capacity and are returned by {!unordered}
   for recovery flushes) but later claims skip them. *)
let claim_unordered t ~max =
  let head = Ring_buffer.head t.ring in
  let start = if t.claimed < head then head else t.claimed in
  let avail = t.live - t.claimed_live in
  let want = if max < avail then max else avail in
  if want <= 0 then [||]
  else begin
    let out = Array.make want (Types.Data Types.no_op) in
    let taken = ref 0 in
    t.claimed <-
      Ring_buffer.iter_from t.ring ~from:start ~max:want (fun e ->
          out.(!taken) <- e;
          incr taken);
    t.claimed_live <- t.claimed_live + !taken;
    if !taken = want then out else Array.sub out 0 !taken
  end

let reset_claims t =
  t.claimed <- Ring_buffer.head t.ring;
  t.claimed_live <- 0

(* The no-op rid (client -1) is never recorded. *)
let note_ordered t (rid : Types.Rid.t) =
  let c = rid.client in
  if c >= 0 then begin
    let n = Array.length t.ordered_seq in
    if c >= n then begin
      let m = ref (2 * n) in
      while c >= !m do
        m := 2 * !m
      done;
      let a = Array.make !m (-1) in
      Array.blit t.ordered_seq 0 a 0 n;
      t.ordered_seq <- a
    end;
    if t.ordered_seq.(c) < rid.seq then t.ordered_seq.(c) <- rid.seq
  end

(* Removing the entry at the ring's head advances the head over the holes
   behind it: the paper's GC moving the head pointer. *)
let remove_ordered t rids =
  List.iter
    (fun rid ->
      note_ordered t rid;
      match Types.Rid_tbl.find t.by_rid rid with
      | slot ->
        bump_live t (Types.entry_log (Ring_buffer.find t.ring slot)) (-1);
        Ring_buffer.remove t.ring slot;
        Types.Rid_tbl.remove t.by_rid rid;
        t.live <- t.live - 1;
        if slot < t.claimed then t.claimed_live <- t.claimed_live - 1
      | exception Not_found -> ())
    rids;
  Waitq.broadcast t.space

let mark_ordered t rids = List.iter (note_ordered t) rids

let clear t =
  Ring_buffer.clear t.ring;
  Types.Rid_tbl.reset t.by_rid;
  t.live <- 0;
  Itbl.reset t.live_logs;
  t.live_other <- 0;
  t.claimed <- Ring_buffer.tail t.ring;
  t.claimed_live <- 0;
  Waitq.broadcast t.space

let last_ordered_gp t = t.gp

let set_last_ordered_gp t gp = t.gp <- gp

(* Per-log frontier accessors. Log 0 aliases the scalar [gp]; a log with
   no frontier yet starts at its base position. *)
let last_ordered_gp_for t ~log =
  if log = 0 then t.gp
  else
    match Itbl.find t.gps log with
    | g -> g
    | exception Not_found -> Logid.base ~log

let set_last_ordered_gp_for t ~log g =
  if log = 0 then t.gp <- g else Itbl.replace t.gps log g

(* Sorted by log: the list crosses the wire in [R_state] and fills the
   recovery's polymorphic tables, whose fold order follows insertion
   order within a bucket, so it must not follow [gps]'s slot order. *)
let log_gps t =
  Itbl.fold (fun log g acc -> (log, g) :: acc) t.gps []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let set_log_gps t gps =
  Itbl.reset t.gps;
  List.iter (fun (log, g) -> Itbl.replace t.gps log g) gps

let live_count_for t ~log =
  if log = 0 then t.live - t.live_other
  else match Itbl.find t.live_logs log with n -> n | exception Not_found -> 0

let mem t rid = Types.Rid_tbl.mem t.by_rid rid

let known = is_duplicate
