(** Unbounded FIFO channels between simulation fibers.

    Messages are delivered in send order; multiple receivers are served in
    the order they blocked. This is the delivery surface the simulated
    network writes into.

    Instead of blocked fibers, a mailbox may be drained by one {e callback
    consumer} ({!set_consumer}), which never needs a fiber: it takes
    messages while {!ready} holds and then {!park_consumer}s itself. The
    next {!send} hands its message over to the parked consumer and
    schedules the consumer closure at the current instant with
    {!Engine.call_at} — the same cell a blocked receiver's wake takes.
    A mailbox has either fiber receivers or a consumer, never both:
    {!recv}, {!recv_timeout} and {!try_recv} raise [Invalid_argument] on
    a mailbox with a consumer. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Never blocks. *)

val recv : 'a t -> 'a
(** Blocks the calling fiber until a message is available. *)

val recv_timeout : 'a t -> timeout:Engine.time -> 'a option

val try_recv : 'a t -> 'a option

val length : 'a t -> int
(** Number of queued (undelivered) messages. *)

val clear : 'a t -> unit
(** Drops all queued messages (blocked receivers stay blocked). A message
    already handed over to a woken receiver or to the consumer is not
    queued any more and survives, as a value passed to a wake does. *)

(** {1 Callback consumer} *)

val set_consumer : 'a t -> (unit -> unit) -> unit
(** Installs the consumer closure, preallocated by the caller and
    scheduled on every handover. The consumer starts unparked: messages
    sent before its first {!park_consumer} queue. Raises
    [Invalid_argument] if the mailbox already has a consumer (so a node
    carries at most one RPC endpoint). *)

val park_consumer : 'a t -> unit
(** Parks the consumer until the next {!send}. Raises [Invalid_argument]
    when {!ready} holds: the consumer must drain first. *)

val ready : 'a t -> bool
(** Whether {!take} has a message: a handed-over one or a queued one. *)

val take : 'a t -> 'a
(** The next message, handed-over one first, without blocking. Raises
    [Invalid_argument] when not {!ready}. *)
