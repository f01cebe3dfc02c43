(** Integer samples (simulated nanoseconds, counts) and the benchmark's
    percentile rule.

    Percentiles are nearest-rank: the [q]-quantile of [n] sorted samples
    is the sample at 0-based rank [ceil (q * n) - 1]. A quantile is only
    reported when at least {!min_beyond} samples lie strictly beyond that
    rank, so a p99.9 needs 10,000 samples — below that it is absent, not
    guessed. *)

type t

val create : unit -> t
val add : t -> int -> unit
val count : t -> int

val min_beyond : int
(** Samples required past the chosen rank (10). *)

val rank : q:float -> int -> int
(** [rank ~q n] is the 0-based nearest-rank index for [n > 0] samples. *)

val quantile : t -> q:float -> int option
(** [None] when fewer than {!min_beyond} samples lie beyond the rank. *)

val equal : t -> t -> bool
(** Same samples in the same insertion order (the traced/untraced
    reproduction check; compare before asking for quantiles). *)
