module Rid = struct
  type t = { client : int; seq : int }

  let compare a b =
    let c = Int.compare a.client b.client in
    if c <> 0 then c else Int.compare a.seq b.seq

  let equal a b = a.client = b.client && a.seq = b.seq

  (* Mixes both fields without building a tuple: Fibonacci hashing of
     [client * K + seq], as in [Ll_sim.Itbl]. *)
  let hash a =
    (((a.client * 0x1E3779B97F4A7C15) + a.seq) * 0x1E3779B97F4A7C15) lsr 32

  let pp fmt a = Format.fprintf fmt "%d.%d" a.client a.seq
end

module Rid_tbl = Hashtbl.Make (Rid)

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
