(* The multi-log keyspace packs (log, position) into one int:

     packed = (log lsl shift) lor pos

   Log 0 therefore packs to the raw position — every pre-multi-log
   integer position is the log-0 encoding of itself, so the single-log
   path needs no translation anywhere (wire messages, shard stores, the
   [mod nshards] placement rule and the monitors all keep working on the
   packed value unchanged). Positions within a log are dense; distinct
   logs occupy disjoint ranges, so numeric comparison doubles as per-log
   comparison whenever both sides belong to the same log. *)

let shift = 40

let max_pos = (1 lsl shift) - 1

let max_logs = 1 lsl (62 - shift)

let pack ~log pos =
  if log < 0 || log >= max_logs then invalid_arg "Logid.pack: bad log id";
  if pos < 0 || pos > max_pos then invalid_arg "Logid.pack: bad position";
  (log lsl shift) lor pos

let log_of packed = packed lsr shift

let pos_of packed = packed land max_pos

let base ~log = log lsl shift

exception Log_end

let iter_log idx ~from f =
  let last = from lor max_pos in
  try
    Ll_storage.Mem_log.iter idx ~from (fun pos v ->
        if pos > last then raise_notrace Log_end;
        f pos v)
  with Log_end -> ()

let pp fmt packed =
  if log_of packed = 0 then Format.fprintf fmt "%d" packed
  else Format.fprintf fmt "%d@%d" (pos_of packed) (log_of packed)
