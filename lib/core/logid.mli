(** Packed (log, position) keyspace for the multi-log fabric.

    A packed global position is [(log lsl shift) lor pos]. Log 0 packs to
    the raw position, so every pre-multi-log position is already the
    log-0 encoding of itself and the single-log path runs unchanged on
    packed values. Positions within one log are dense and numerically
    ordered; distinct logs occupy disjoint ranges. *)

val shift : int
(** Bit position of the log id within a packed position (40). *)

val max_pos : int
(** Largest per-log position ([2^shift - 1]). *)

val max_logs : int
(** Exclusive upper bound on log ids. *)

val pack : log:int -> int -> int
(** [pack ~log pos] is the packed global position. Raises
    [Invalid_argument] on out-of-range log or position. *)

val log_of : int -> int
(** Log id of a packed position ([0] for every legacy position). *)

val pos_of : int -> int
(** Per-log position of a packed position (identity for log 0). *)

val base : log:int -> int
(** [base ~log] is [pack ~log 0]: the first position of [log]. *)

val iter_log :
  'a Ll_storage.Mem_log.t -> from:int -> (int -> 'a -> unit) -> unit
(** [iter_log idx ~from f] is {!Ll_storage.Mem_log.iter} from [from] that
    stops at the end of [from]'s log: entries of higher logs are not
    visited. *)

val pp : Format.formatter -> int -> unit
(** ["pos@log"], or just ["pos"] for log 0. *)
