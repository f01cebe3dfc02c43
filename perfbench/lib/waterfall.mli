(** The per-record simulated latency waterfall, folded from {!Lazylog.Probe}
    lifecycle events.

    Each appended record is stamped, in simulated nanoseconds, at:
    invocation, first and last sequencing-replica accept, client ack,
    binding on its shard ([Shard_stored]), the stable-prefix advance that
    covers its position, and the first read that served it. Consecutive
    stamps give the segments below; they sum to served - invoked exactly.
    Stamps may legitimately run out of order (the orderer can bind a
    record before its client hears the last replica ack), so segments are
    signed. *)

open Lazylog

type stamps = private {
  rid : Types.Rid.t;
  invoked : int;
  mutable first_accept : int;
  mutable last_accept : int;
  mutable accepts : int;
  mutable acked : int;
  mutable pos : int;
  mutable bound : int;
  mutable stable : int;
  mutable served : int;
}
(** [-1] marks a stamp not seen. *)

type t

val create : unit -> t

val feed : t -> now:int -> Probe.event -> unit
(** Fold one event observed at simulated time [now]. *)

val find : t -> Types.Rid.t -> stamps option
val records : t -> stamps list
(** In invocation order. *)

val anomalies : t -> int
(** Events that contradict the lifecycle: a rid invoked twice, acked
    twice or without an invocation, or bound twice. *)

val noops : t -> int
(** [Shard_nooped] events seen. *)

type segment =
  | To_first_accept  (** invoke -> first replica accept *)
  | Accept_spread  (** first -> last replica accept *)
  | Accept_to_ack  (** last replica accept -> client ack *)
  | Ack_to_bound  (** client ack -> bound on the shard *)
  | Bound_to_stable  (** bound -> covered by the stable prefix *)
  | Stable_to_served  (** stable -> first read served *)

val segments : segment list
(** In lifecycle order. *)

val segment : stamps -> segment -> int option
(** [None] when either end was not stamped. *)

val complete : stamps -> bool
(** Every segment has both ends. *)

val sum : stamps -> int option
(** Sum of all segments of a complete record. *)
