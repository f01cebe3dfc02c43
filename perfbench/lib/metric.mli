(** Named metrics on two clocks, and their serialisation.

    Every metric carries its unit and the clock it was measured on:
    simulated time ({!Sim}, deterministic per seed) or the host
    ({!Host}: CPU time, allocation, heap). A metric that was not measured
    has no value and is {e absent} from every JSON object — never written
    as [0]. *)

type clock = Sim | Host

type t = { name : string; unit_ : string; clock : clock; value : float option }

val sim : unit_:string -> string -> float option -> t
val host : unit_:string -> string -> float option -> t

val us_of_ns : string -> int option -> t
(** A simulated quantile in nanoseconds from {!Samples.quantile}, in
    microseconds; absent when the quantile was. *)

val ratio : float -> float -> float option
(** [ratio num den]: [None] when [den = 0]. *)

val number : float -> string
(** Shortest decimal that parses back to the same float. *)

val json_object : t list -> string
(** [{"name": {"value": v, "unit": u}, ...}] over the present metrics
    only (absent and non-finite values are left out). *)

val block : t list -> clock -> string
(** ["sim": {...}] or ["host": {...}]: one clock's metrics as a JSON
    member, so simulated and host quantities never share an object. *)

val missing : names:string list -> t list -> string list
(** The [names] that have no present value in the list. *)

val pick : names:string list -> t list -> t list
(** The metrics named in [names], in that order. *)

val result_line : correct:bool -> attempted:int -> failed:int -> t list -> string
(** The benchmark's final result object. *)

val render : t -> string
(** One human-readable line; absent metrics print as [absent]. *)
