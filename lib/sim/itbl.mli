(** Hash tables keyed by [int]: one flat, open-addressed array.

    The record path keys many tables by ints that are far from uniform:
    packed multi-log positions ([(log lsl 40) lor pos]), packed fabric
    links ([(src lsl 20) lor dst]), packed request ids, dense client,
    token and log ids. A key's home slot is the low bits of the high half of
    the key times an odd 64-bit constant (Fibonacci hashing): key bits
    below 32 reach every slot bit, so the bits that tell a table's keys
    apart belong there (the rid packing puts the client there). Keys and
    values sit interleaved in one array, probed linearly from the home
    slot, at a load of at most 3/4; a lookup compares keys
    with [==] and allocates nothing, and neither does an insert outside
    a resize. Deletion shifts the rest of the probe run back, so the table
    never holds tombstones.

    Iteration ([iter], [fold]) visits slots in array order, which follows
    the hash and the insertion history, not the keys' order. A caller
    whose fold order reaches a message or a wake must sort or otherwise
    not depend on it. Neither [f] may add or remove bindings. *)

type 'a t

val create : unit -> 'a t
(** An empty table of 4 slots. It doubles whenever an insert would take
    it past 3/4 full. *)

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing any binding it had. *)

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val remove : 'a t -> int -> unit
(** No-op if the key is unbound. *)

val length : 'a t -> int

val reset : 'a t -> unit
(** Drops every binding and shrinks the table back to 4 slots. A table
    that never grew is cleared in place and allocates nothing. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val max_probe : 'a t -> int
(** The most slots any bound key's lookup probes (1 when every key sits
    in its home slot, 0 when the table is empty). *)
