(** A small persistent pool of OCaml 5 domains for data-parallel phases.

    The pool amortizes [Domain.spawn] cost across many short parallel
    phases: spawning a domain costs hundreds of microseconds, which would
    dominate short jobs such as racing the parts of a preprocessed
    instance in [Core.Solver].  A pool of [n] shards owns [n-1]
    worker domains; the calling domain always participates as shard 0, so
    [create 1] spawns nothing and [run] degenerates to a direct call with
    no synchronization at all — the sequential path stays exact.

    Every [run] is a barrier: it returns only after all shards finished
    the job, so writes made by shard [i] during the job
    happen-before any read performed after [run] returns (the mutex
    protocol establishes the ordering).  Jobs must partition their
    writes by shard — the pool provides scheduling and ordering,
    not atomicity. *)

type t

val create : int -> t
(** [create n] builds a pool with [n] shards (clamped below at 1),
    spawning [n-1] worker domains that sleep until the first [run]. *)

val size : t -> int
(** Number of shards, i.e. the [n] given to [create] (>= 1). *)

val run : t -> (int -> unit) -> unit
(** [run pool job] executes [job shard] for every [shard] in
    [0 .. size-1], shard 0 on the calling domain, and returns when all
    are done.  If any shard raises, the first exception (by completion
    order) is re-raised on the caller after the barrier — the other
    shards still run to completion, so the pool stays usable.
    Not re-entrant: do not call [run] from inside a job. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards.
    Idempotent. *)
