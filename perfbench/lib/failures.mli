(** Failure accounting.

    An operation fails when an append returns [false], or when a
    sequencing replica's ingress sheds it. A shed is answered at once
    with a failed reply and the client retries under the same record id,
    so each shed is one attempted-and-failed operation on top of the
    append call that eventually succeeds:
    attempted = calls + shed, failed = returned_false + shed. *)

type t = { calls : int; returned_false : int; shed : int }

val attempted : t -> int
val failed : t -> int

val ratio : t -> float option
(** [failed / attempted]; [None] when nothing was attempted. *)
