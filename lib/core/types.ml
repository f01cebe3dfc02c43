module Rid = struct
  type t = { client : int; seq : int }

  let compare a b =
    let c = Int.compare a.client b.client in
    if c <> 0 then c else Int.compare a.seq b.seq

  let equal a b = a.client = b.client && a.seq = b.seq

  let pp fmt a = Format.fprintf fmt "%d.%d" a.client a.seq

  let client_bits = 24
  let seq_bits = 38

  (* [seq + 1] above [client_bits], [client + 1] below, so the no-op rid
     (-1, -1) packs to 0. Both fields must fit, or two rids could pack
     alike. The client sits in the low bits: only a key's low 32 bits
     reach every slot bit of [Ll_sim.Itbl]'s hash, and in-flight rids
     differ mostly by client. *)
  let pack a =
    let c = a.client + 1 and s = a.seq + 1 in
    if (c lsr client_bits) lor (s lsr seq_bits) <> 0 then
      invalid_arg "Rid.pack: client or seq out of range";
    (s lsl client_bits) lor c

  let unpack k =
    {
      client = (k land ((1 lsl client_bits) - 1)) - 1;
      seq = (k lsr client_bits) - 1;
    }
end

module Rid_tbl = struct
  module Itbl = Ll_sim.Itbl

  type 'a t = 'a Itbl.t

  let create = Itbl.create
  let replace t r v = Itbl.replace t (Rid.pack r) v
  let find t r = Itbl.find t (Rid.pack r)
  let mem t r = Itbl.mem t (Rid.pack r)
  let remove t r = Itbl.remove t (Rid.pack r)
  let length = Itbl.length
  let reset = Itbl.reset
  let iter f t = Itbl.iter (fun k v -> f (Rid.unpack k) v) t
  let fold f t acc = Itbl.fold (fun k v acc -> f (Rid.unpack k) v acc) t acc
end

(* [log] is the tenant log the record belongs to (0 unless appended
   through a tenant handle); it rides with the record so the sequencing
   layer can assign per-log positions and the ingress scheduler can
   classify by tenant without a side channel. *)
type record = { rid : Rid.t; size : int; data : string; log : int }

let record ~rid ~size ?(data = "") ?(log = 0) () = { rid; size; data; log }

let pp_record fmt r =
  Format.fprintf fmt "{rid=%a size=%d}" Rid.pp r.rid r.size

type entry =
  | Data of record
  | Meta of { rid : Rid.t; shard : int; size : int; log : int }

let entry_rid = function Data r -> r.rid | Meta m -> m.rid

let entry_log = function Data r -> r.log | Meta m -> m.log

let meta_size = 16

let entry_wire_size = function
  | Data r -> r.size
  | Meta _ -> meta_size

let no_op =
  { rid = { Rid.client = -1; seq = -1 }; size = 0; data = "<no-op>"; log = 0 }

let is_no_op r = Rid.equal r.rid no_op.rid
