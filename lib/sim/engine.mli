(** Deterministic discrete-event simulation engine.

    The engine executes lightweight cooperative fibers over a simulated
    clock. Fibers are ordinary OCaml functions that may call {!now},
    {!sleep}, {!spawn} and {!suspend}; blocking is implemented with OCaml 5
    effect handlers, so protocol code reads as straight-line blocking code
    while the whole simulation runs deterministically in a single domain.

    {b The callback contract.} Not every event needs a fiber. A bare
    callback ({!call_at}, the RPC demux, request handlers) runs straight
    from the scheduler loop: it may read the clock, {!wake} waiters,
    {!spawn}, schedule further events and start a fiber in place with
    {!fiber}, but it must not {e block} — {!sleep}, {!yield} and
    {!suspend} (and everything built on them: [Ivar.read],
    [Mailbox.recv], [Waitq.await], an [Rpc.call]) perform an effect that
    no handler catches there, and the run aborts with [Effect.Unhandled].
    That failure is the guard: code that can block wraps the blocking
    branch in {!fiber}, which costs nothing in schedule terms.

    Time is measured in integer nanoseconds of {e simulated} time. Runs are
    reproducible: given the same seed and the same program, every run
    produces the identical schedule. Events at equal timestamps fire in the
    order they were scheduled, unless {!run} is given [~perturb:true], in
    which case ties are broken by a per-run seeded stream — one workload
    then explores many legal interleavings, one per seed, still fully
    deterministically (the ll_check simulation checker's schedule hook).

    All scheduler state is domain-local: each OS domain owns an independent
    engine, so independent simulations (e.g. a seed sweep) can run in
    parallel domains with no shared state.

    Events are stored in pooled cells inside a hierarchical timer wheel
    (near-future buckets at 1 ns granularity cascading out of coarser
    wheels, with a heap fallback for far-future timers), so the per-event
    cost is a handful of array writes rather than comparator sifts and a
    record + closure allocation. A reference binary-heap scheduler — the
    pre-wheel implementation — remains selectable via {!set_scheduler} for
    equivalence testing and before/after benchmarking; both execute the
    identical [(at, tie, seq)] order. *)

type time = int
(** Simulated time in nanoseconds since the start of the run. *)

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber raises: carries the fiber's name and
    the original exception. *)

(** {1 Time constructors} *)

val ns : int -> time
val us : int -> time
val ms : int -> time
val sec : int -> time

val us_f : float -> time
(** [us_f x] is [x] microseconds, rounded to the nearest nanosecond. *)

val to_us : time -> float
val to_ms : time -> float
val to_sec : time -> float

(** {1 Fiber primitives}

    All of these must be called inside {!run}; calling them elsewhere
    raises [Failure]. The blocking ones ({!sleep}, {!sleep_until},
    {!yield}, {!suspend}) must moreover run on a fiber (see the callback
    contract above). *)

val now : unit -> time
(** Current simulated time. Reads the engine clock directly (not an
    effect), so it is also callable from bare {!call_at} callbacks. *)

val sleep : time -> unit
(** [sleep d] suspends the calling fiber for [d] simulated nanoseconds.
    [sleep 0] yields to other fibers scheduled at the current instant. *)

val sleep_until : time -> unit
(** [sleep_until t] sleeps until absolute time [t] ([t <= now] is a yield). *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** [spawn f] schedules fiber [f] to start at the current instant, behind
    every event already scheduled for it. [name] is used in crash
    reports. Performs no effect, so callbacks may spawn too. *)

val fiber : name:string -> (unit -> unit) -> unit
(** [fiber ~name f] starts [f] as a fiber {e in place}: its body runs now,
    inside the current event and before any other cell at this instant,
    and [fiber] returns once [f] finishes or first suspends (the rest of
    [f] then runs from the cells its waits schedule). It schedules no cell
    of its own, so wrapping a callback's blocking branch in [fiber] keeps
    the schedule identical to running that branch on a fiber that was
    already started. Legal from fibers and bare callbacks alike; an
    exception escaping [f] is raised as [Fiber_failure (name, e)]. An RPC
    handler's blocking branch uses [Rpc.fiber], which names the
    fiber after its endpoint. *)

val yield : unit -> unit

type 'a waker
(** A one-shot resumption capability for a suspended fiber. *)

val wake : 'a waker -> 'a -> bool
(** [wake w v] resumes the fiber suspended on [w] with value [v]. Returns
    [true] if this call performed the wake-up and [false] if the waker had
    already fired (each waker fires at most once). May be called from any
    fiber or from a scheduled callback. *)

val is_woken : 'a waker -> bool

val suspend : ('a waker -> unit) -> 'a
(** [suspend register] parks the calling fiber and hands its waker to
    [register]. The fiber resumes with the value later passed to {!wake}.
    If no one ever wakes the waker the fiber stays parked forever (which is
    fine: the run simply ends when no events remain). *)

val at : time -> (unit -> unit) -> unit
(** [at t f] schedules callback [f] at absolute simulated time [t] (clamped
    to now if in the past). [f] runs on its own fiber. *)

val after : time -> (unit -> unit) -> unit
(** [after d f] is [at (now () + d) f]. *)

val call_at : time -> (unit -> unit) -> unit
(** [call_at t f] schedules [f] at absolute time [t] (clamped to now if in
    the past), run {e bare} in the scheduler loop rather than on a fiber:
    no fiber start cost and no closure beyond [f] itself. [f] must not
    block ({!sleep}, {!suspend}): wrap a blocking branch in {!fiber}, or
    use {!at} to run all of [f] on its own fiber. Calling {!now},
    {!wake}, {!spawn} or scheduling further events from [f] is fine
    (deadline timers already run this way). *)

val call_after : time -> (unit -> unit) -> unit
(** [call_after d f] is [call_at (now () + d) f]. *)

(** {1 Cancellable timers}

    Timed waits (Mailbox/Waitq/Ivar timeouts, RPC deadlines) arm a timer
    they usually don't need: the common case is a normal wake before the
    deadline. Cancellation removes the dead timer from the schedule — the
    wheel unlinks the cell in O(1) and recycles it; the reference heap
    tombstones the event and the run loop skips it — so a completed timed
    wait leaves nothing behind to churn through the scheduler. Cancelled
    timers never execute under either scheduler, so schedule equivalence
    is preserved. *)

type timer = private int
(** A cancel token for a pending timer. Tokens are immediate ints (no
    allocation) and are only meaningful within the {!run} that created
    them. *)

val no_timer : timer
(** The null token; {!cancel} on it returns [false]. *)

val timer_at : time -> (unit -> unit) -> timer
(** Like {!call_at} — identical schedule position — but returns a token
    that can cancel the callback before it fires. *)

val timer_after : time -> (unit -> unit) -> timer
(** [timer_after d f] is [timer_at (now () + d) f]. *)

val cancel : timer -> bool
(** [cancel t] removes the pending timer: [true] if this call removed it
    (the callback will never run), [false] if it already fired, was
    already cancelled, or [t] is {!no_timer}. *)

val arm_timeout : 'a waker -> time -> 'a -> unit
(** [arm_timeout w d v] arms a deadline on waker [w]: after [d] ns, [w] is
    woken with [v] unless it fired first. A normal {!wake} before the
    deadline cancels the timer automatically — this is the primitive the
    timed waits in Mailbox/Waitq/Ivar are built on. At most one deadline
    per waker; re-arming overwrites the token without cancelling the
    previous timer. *)

val timers_cancelled : unit -> int
(** Number of timers removed by {!cancel} so far in this run
    (diagnostic; includes deadline auto-cancels). *)

val pending_events : unit -> int
(** Number of scheduled-but-unfired events right now — live wheel cells
    (or non-tombstoned heap events). Lets tests and micro benchmarks
    observe that cancelled timers really left the schedule. *)

(** {1 Randomness} *)

val random_state : unit -> Random.State.t
(** The engine's deterministic random state (seeded by {!run}). Every
    stochastic default in the simulator (fabric jitter seeds, workload
    arrival seeds) should derive from this stream so one master seed
    reproduces the whole run. *)

val master_seed : unit -> int
(** The seed the current (or most recent) {!run} was started with. *)

(** {1 Running} *)

val run : ?seed:int -> ?perturb:bool -> ?until:time -> (unit -> unit) -> unit
(** [run main] resets the clock to 0 and executes [main] plus everything it
    spawns until no scheduled events remain, or until simulated time
    exceeds [until] if given. Exceptions escaping any fiber abort the run
    (printing the master seed for replay) and are re-raised. Runs must not
    nest within a domain; independent domains may run concurrently.

    [perturb] (default false) randomizes tie-breaking among equal-time
    events from a stream derived from [seed], so distinct seeds explore
    distinct legal interleavings of the same program. *)

val stop : unit -> unit
(** Request the current run to stop; remaining events are discarded once the
    currently executing fiber slice returns. *)

val fiber_count : unit -> int
(** Number of fiber starts so far in this run (diagnostic). *)

val events_executed : unit -> int
(** Number of scheduler events executed so far in this run — a stable
    logical clock for repro artifacts (survives until the next {!run}).
    Scheduler-invariant: the wheel and the reference heap execute the same
    events in the same order, so counts recorded by monitors are
    comparable across schedulers. *)

(** {1 Scheduler selection} *)

val set_scheduler : [ `Wheel | `Heap ] -> unit
(** Select the event scheduler for subsequent {!run}s — [`Wheel] (default,
    hierarchical timer wheel over pooled cells) or [`Heap] (reference
    binary heap, the pre-wheel implementation). Both execute the identical
    event order; [`Heap] exists for equivalence tests and before/after
    benchmarks. Also sets the default inherited by freshly spawned
    domains. Raises [Failure] if called during a run. *)

val scheduler : unit -> [ `Wheel | `Heap ]
(** The calling domain's currently selected scheduler. *)
