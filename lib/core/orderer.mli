(** Background ordering (section 4.3), pipelined.

    The orderer takes the leader's unordered entries, assigns them global
    positions starting at the leader's last-ordered-gp, pushes them to the
    shards (whole records for Erwin-m, metadata bindings plus the
    position-to-shard map for Erwin-st), garbage collects the batch on
    every replica, and only then advances stable-gp — the order the
    correctness argument of section 4.5 depends on.

    By default those stages are pipelined across batches: a dispatcher
    fiber claims batch N+1 from the leader's log and fires its per-shard
    pushes while batch N's follower GC and stable broadcast are still in
    flight, and a committer fiber retires batches strictly in dispatch
    order so stable-gp never advances out of order. In-flight batches are
    bounded by [Config.pipeline_depth]; batch size adapts between
    [Config.min_batch] and [Config.max_batch] ({!Adaptive}). With
    [pipeline_depth = 1] each batch is stable before the next is claimed;
    [adaptive_batch = false] fixes the batch at [max_batch].

    The dispatcher reads the leader's log directly (the paper does this
    with RDMA so the leader's CPU is not consumed) and quiesces while a
    view change is running. *)

open Ll_net

val push_batch :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Rpc.endpoint ->
  truncate_logs:int list ->
  (int * Types.entry) list ->
  unit
(** Pushes positioned entries to the shards and waits for all of them to
    acknowledge (replication included). Every shard first logically
    overwrites each log named in [truncate_logs] (packed per-log
    frontiers) from its frontier up — the recovery flush path (section
    4.5) — in the same message as the rebinding slots, so the
    unbind/rebind pair is atomic per shard. Used by {!Reconfig}. *)

val broadcast_stable :
  Erwin_common.t -> (Proto.req, Proto.resp) Rpc.endpoint -> int -> unit
(** Advances the cluster's stable-gp mirror and notifies every shard. *)

val broadcast_stable_logs :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Rpc.endpoint ->
  new_gp:int ->
  new_gps:(int * int) list ->
  unit
(** {!broadcast_stable} for the log-0 frontier plus one merge/notify round
    per advanced tenant frontier ([(log, packed gp)]). With [new_gps = []]
    this is exactly {!broadcast_stable}. *)

(** Batch-size controller for the pipelined orderer: grows the batch while
    claims come out full with backlog remaining, shrinks it once the
    sequencing log drains. Exposed for unit testing. *)
module Adaptive : sig
  val next : Config.t -> cur:int -> claimed:int -> backlog:int -> int
  (** [next cfg ~cur ~claimed ~backlog] is the batch size to use after a
      claim that returned [claimed] entries and left [backlog] live
      unclaimed entries behind. Clamped to
      [[min min_batch max_batch, max_batch]]; with [adaptive_batch =
      false] it is always [max_batch]. *)
end

val start : Erwin_common.t -> unit
(** Spawns the background-ordering fiber(s). *)

val is_idle : Erwin_common.t -> bool

val wait_idle : Erwin_common.t -> unit
(** Blocks until no ordering batch is in flight (reconfiguration uses this
    to serialize the recovery flush against normal pushes). *)
