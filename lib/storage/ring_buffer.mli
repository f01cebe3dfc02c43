(** Growable ring buffer with absolute head/tail counters and holes.

    This is the sequencing-replica log of the paper (section 5.6): "the log
    is implemented as a ring buffer with a head and tail pointer. New
    entries or metadata identifiers are added at the tail"; garbage
    collection "modif[ies] the head pointers ... freeing space".

    Entries live at absolute slots [head..tail). Followers garbage-collect
    the set of entries the leader just ordered, which need not be a
    prefix, so {!remove} punches a hole at any slot, and the head advances
    over holes whenever the entry at the head goes. The slot array is a
    power of two indexed by [slot land mask]; when [tail - head] fills it,
    it doubles. The buffer itself never refuses an append: the caller
    bounds how many entries may be live. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** An empty buffer with room for [capacity] (default 1024, rounded up to
    a power of two) slots before it first grows. *)

val head : 'a t -> int
(** Absolute slot of the oldest live entry; [tail] when empty. *)

val tail : 'a t -> int
(** Absolute slot one past the newest entry (the next append slot). *)

val length : 'a t -> int
(** [tail - head]: the slots spanned, holes included. *)

val append : 'a t -> 'a -> int
(** Stores the value at [tail], growing the slot array if it is full, and
    returns its absolute slot. *)

val find : 'a t -> int -> 'a
(** The live entry at this absolute slot. Raises [Not_found] on a hole or
    a slot outside [head..tail). *)

val remove : 'a t -> int -> unit
(** Makes the slot a hole (no-op outside [head..tail)); when it was the
    head, the head advances past every hole that follows. *)

val iter_from : 'a t -> from:int -> max:int -> ('a -> unit) -> int
(** [iter_from t ~from ~max f] applies [f] to up to [max] live entries at
    slots [>= max from head], in slot order, and returns the slot after
    the last one visited ([tail] when the entries run out first). *)

val clear : 'a t -> unit
(** Drops every entry, setting [head = tail] (absolute counters keep
    advancing monotonically). The slot array keeps its size. *)
