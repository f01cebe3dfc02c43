open Ll_sim

type 'a t = {
  disk : Disk.t;
  dirty_limit : int;
  entries_per_file : int;
  log : 'a Mem_log.t;
  dirty : int Queue.t;  (* sizes of staged entries not yet on the device *)
  mutable dirty_bytes : int;
  seg_bytes : int ref Itbl.t;
  cached : unit Itbl.t;
  space : Waitq.t;  (* dirty buffer below limit *)
  drained : Waitq.t;  (* dirty buffer empty *)
  work : Waitq.t;  (* dirty buffer non-empty *)
}

let flusher t () =
  let rec loop () =
    Waitq.await t.work (fun () -> not (Queue.is_empty t.dirty));
    (* Drain up to one segment file's worth per device operation: batched
       writes amortize the device base latency like group commit. *)
    let batch_bytes = ref 0 in
    let batch_count = ref 0 in
    while
      (not (Queue.is_empty t.dirty)) && !batch_count < t.entries_per_file
    do
      batch_bytes := !batch_bytes + Queue.pop t.dirty;
      incr batch_count
    done;
    Disk.write t.disk ~bytes:!batch_bytes;
    t.dirty_bytes <- t.dirty_bytes - !batch_bytes;
    Waitq.broadcast t.space;
    if Queue.is_empty t.dirty then Waitq.broadcast t.drained;
    loop ()
  in
  loop ()

let create ~disk ?(dirty_limit_bytes = 8 * 1024 * 1024)
    ?(entries_per_file = 1024) () =
  let t =
    {
      disk;
      dirty_limit = dirty_limit_bytes;
      entries_per_file;
      log = Mem_log.create ();
      dirty = Queue.create ();
      dirty_bytes = 0;
      seg_bytes = Itbl.create ();
      cached = Itbl.create ();
      space = Waitq.create ();
      drained = Waitq.create ();
      work = Waitq.create ();
    }
  in
  Engine.spawn ~name:"store.flusher" (flusher t);
  t

let segment t pos = pos / t.entries_per_file

let stage t ~pos ~size v =
  Mem_log.set t.log pos v;
  let seg = segment t pos in
  (match Itbl.find t.seg_bytes seg with
  | r -> r := !r + size
  | exception Not_found -> Itbl.replace t.seg_bytes seg (ref size));
  Itbl.replace t.cached seg ();
  Queue.push size t.dirty;
  t.dirty_bytes <- t.dirty_bytes + size

let has_room t = t.dirty_bytes < t.dirty_limit

let append t ~pos ~size v =
  Waitq.await t.space (fun () -> has_room t);
  stage t ~pos ~size v;
  Waitq.broadcast t.work

let append_batch t batch =
  match batch with
  | [] -> ()
  | _ ->
    Waitq.await t.space (fun () -> has_room t);
    List.iter (fun (pos, size, v) -> stage t ~pos ~size v) batch;
    Waitq.broadcast t.work

let set_mem t ~pos v =
  Mem_log.set t.log pos v;
  Itbl.replace t.cached (segment t pos) ()

let read t ~pos =
  match Mem_log.get t.log pos with
  | None -> None
  | Some _ as hit ->
    let seg = segment t pos in
    if not (Itbl.mem t.cached seg) then begin
      let bytes =
        match Itbl.find t.seg_bytes seg with
        | r -> !r
        | exception Not_found -> 0
      in
      Disk.read t.disk ~bytes;
      Itbl.replace t.cached seg ()
    end;
    hit

(* Batched read fast path: one pass collects the hits and the distinct
   cold segments they touch, then the cold segments pay a single device
   read for their combined bytes — the device base cost amortizes across
   the group, mirroring what the flusher does on the write side. *)
let read_many t positions =
  (* Distinct cold segments, as a list: a read touches a handful at most,
     and a read served wholly from cache allocates nothing for them. *)
  let cold = ref [] in
  let cold_bytes = ref 0 in
  let hits =
    List.filter_map
      (fun pos ->
        match Mem_log.get t.log pos with
        | None -> None
        | Some v ->
          let seg = segment t pos in
          if not (Itbl.mem t.cached seg || List.mem seg !cold) then begin
            cold := seg :: !cold;
            match Itbl.find t.seg_bytes seg with
            | r -> cold_bytes := !cold_bytes + !r
            | exception Not_found -> ()
          end;
          Some (pos, v))
      positions
  in
  if !cold <> [] then begin
    Disk.read t.disk ~bytes:!cold_bytes;
    List.iter (fun seg -> Itbl.replace t.cached seg ()) !cold
  end;
  hits

let mem_read t ~pos = Mem_log.get t.log pos

let length t = Mem_log.length t.log

let truncate t n = Mem_log.truncate t.log n

let remove t ~pos = Mem_log.remove t.log pos

let trim t n = Mem_log.trim t.log n

let dirty_bytes t = t.dirty_bytes

let flush_wait t = Waitq.await t.drained (fun () -> Queue.is_empty t.dirty)

let entries t = Mem_log.to_list t.log
