(** Condition-variable-style wait queues.

    A [Waitq.t] lets fibers block until some predicate over shared mutable
    state becomes true; whoever mutates that state calls {!broadcast}.
    Used for slow-path reads ("wait until stable-gp >= p"), ring-buffer
    backpressure, and similar protocol waits.

    Waiters come in two kinds: fibers blocked in {!await} or
    {!await_timeout}, and callbacks parked by {!await_k}, which never
    need a fiber. Both sit in one FIFO list, so a broadcast wakes them in
    the order they parked, whatever their kind. *)

type t

val create : unit -> t

val await : t -> (unit -> bool) -> unit
(** [await t pred] returns immediately if [pred ()]; otherwise blocks until
    a {!broadcast} after which [pred ()] is true (re-blocking as needed). *)

val await_k : t -> (unit -> bool) -> (unit -> unit) -> unit
(** [await_k t pred k] is the callback form of {!await}, legal from bare
    callbacks: it runs [k] at once if [pred ()] holds; otherwise it parks
    a callback that re-checks [pred] each time a {!broadcast} wakes it
    (re-parking while it fails) and runs [k] once it holds. A broadcast
    schedules the callback at the current instant with
    {!Engine.call_at} — the cell a blocked fiber's wake would take — so
    replacing an [await] whose continuation never blocks by [await_k]
    keeps the schedule identical. *)

val await_timeout : t -> timeout:Engine.time -> (unit -> bool) -> bool
(** Like {!await} but gives up after [timeout] ns; returns whether the
    predicate held on exit. *)

val broadcast : t -> unit
(** Wake all current waiters so they re-check their predicates. *)

val waiters : t -> int
