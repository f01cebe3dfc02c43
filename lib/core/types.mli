(** Core types shared by every shared-log implementation in this repo. *)

(** Record identifier: client id plus the client's monotonically increasing
    request id (the paper's record-id, section 5.1: "record-id is a
    combination of client-id and request-id"). *)
module Rid : sig
  type t = { client : int; seq : int }

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val client_bits : int
  val seq_bits : int

  val pack : t -> int
  (** One non-negative int for a rid: [(seq + 1) lsl client_bits lor
      (client + 1)], so {!Types.no_op}'s rid packs to 0. Distinct rids pack
      to distinct ints.
      @raise Invalid_argument unless [-1 <= client < 2^client_bits - 1]
      and [-1 <= seq < 2^seq_bits - 1] (about 1.7 * 10^7 clients and
      2.7 * 10^11 requests each). *)

  val unpack : int -> t
  (** Inverse of {!pack} on its range. *)
end

(** Tables keyed by record id: an {!Ll_sim.Itbl} keyed by {!Rid.pack}, so
    every operation raises [Invalid_argument] for a rid outside
    [Rid.pack]'s range. [iter] and [fold] rebuild each rid they visit,
    in the table's slot order. *)
module Rid_tbl : sig
  type 'a t

  val create : unit -> 'a t
  val replace : 'a t -> Rid.t -> 'a -> unit
  val find : 'a t -> Rid.t -> 'a
  val mem : 'a t -> Rid.t -> bool
  val remove : 'a t -> Rid.t -> unit
  val length : 'a t -> int
  val reset : 'a t -> unit
  val iter : (Rid.t -> 'a -> unit) -> 'a t -> unit
  val fold : (Rid.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

(** A log record. [data] is a small correctness tag carried through the
    system; [size] is the modeled payload size in bytes (what the network
    and disks are charged for); [log] is the tenant log it belongs to
    ([0] unless appended through a tenant handle). *)
type record = { rid : Rid.t; size : int; data : string; log : int }

val record :
  rid:Rid.t -> size:int -> ?data:string -> ?log:int -> unit -> record

val pp_record : Format.formatter -> record -> unit

(** Sequencing-layer entry: Erwin-m funnels whole records through the
    sequencing layer, Erwin-st only metadata [<record-id, shard-id>]. *)
type entry =
  | Data of record  (** Erwin-m: the record itself *)
  | Meta of { rid : Rid.t; shard : int; size : int; log : int }
      (** Erwin-st: identifies a record of [size] bytes staged on [shard] *)

val entry_rid : entry -> Rid.t

val entry_log : entry -> int
(** The tenant log an entry belongs to ([0] unless appended through a
    tenant handle). *)

val entry_wire_size : entry -> int
(** Bytes this entry occupies on the wire / in sequencing-replica memory
    (records: payload size; metadata: a fixed 16 bytes). *)

val meta_size : int

val no_op : record
(** The special no-op record written when an Erwin-st client fails after
    its metadata committed but its data never arrived (section 5.4).
    Readers skip no-ops. *)

val is_no_op : record -> bool
