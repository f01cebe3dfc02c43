type 'a t = {
  disk : Disk.t;
  entries_per_file : int;
  log : ('a * int) Mem_log.t;  (* entry, size *)
  seg_bytes : (int, int ref) Hashtbl.t;  (* segment -> stored bytes *)
  cached : (int, unit) Hashtbl.t;
}

let create ~disk ?(entries_per_file = 1024) () =
  {
    disk;
    entries_per_file;
    log = Mem_log.create ();
    seg_bytes = Hashtbl.create 64;
    cached = Hashtbl.create 64;
  }

let segment t pos = pos / t.entries_per_file

let account t pos size =
  let seg = segment t pos in
  (match Hashtbl.find_opt t.seg_bytes seg with
  | Some r -> r := !r + size
  | None -> Hashtbl.add t.seg_bytes seg (ref size));
  (* A freshly written segment is hot: it was just produced from memory. *)
  Hashtbl.replace t.cached seg ()

let write t ~pos ~size v =
  Mem_log.set t.log pos (v, size);
  account t pos size;
  Disk.write t.disk ~bytes:size

let write_batch t batch =
  match batch with
  | [] -> ()
  | _ ->
    let total = ref 0 in
    List.iter
      (fun (pos, size, v) ->
        Mem_log.set t.log pos (v, size);
        account t pos size;
        total := !total + size)
      batch;
    Disk.write t.disk ~bytes:!total

let read t ~pos =
  match Mem_log.get t.log pos with
  | None -> None
  | Some (v, _) ->
    let seg = segment t pos in
    if not (Hashtbl.mem t.cached seg) then begin
      let bytes =
        match Hashtbl.find_opt t.seg_bytes seg with
        | Some r -> !r
        | None -> 0
      in
      Disk.read t.disk ~bytes;
      Hashtbl.replace t.cached seg ()
    end;
    Some v

(* Batched read: distinct cold segments pay one combined device read
   (see {!Flushed_store.read_many} — same amortization). *)
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
        | Some (v, _) ->
          let seg = segment t pos in
          if not (Hashtbl.mem t.cached seg || List.mem seg !cold) then begin
            cold := seg :: !cold;
            match Hashtbl.find_opt t.seg_bytes seg with
            | Some r -> cold_bytes := !cold_bytes + !r
            | None -> ()
          end;
          Some (pos, v))
      positions
  in
  if !cold <> [] then begin
    Disk.read t.disk ~bytes:!cold_bytes;
    List.iter (fun seg -> Hashtbl.replace t.cached seg ()) !cold
  end;
  hits

let mem_read t ~pos =
  match Mem_log.get t.log pos with None -> None | Some (v, _) -> Some v

let length t = Mem_log.length t.log

let truncate t n = Mem_log.truncate t.log n

let trim t n = Mem_log.trim t.log n

let evict_cache t = Hashtbl.reset t.cached

let entries t = List.map (fun (pos, (v, _)) -> (pos, v)) (Mem_log.to_list t.log)
