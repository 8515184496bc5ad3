(** Sandboxed worker processes: the process-death isolation boundary.

    {!Server.handle_line} (PR 6) made the request loop total against
    {e exceptions}; this module extends the boundary to {e process
    death}.  The decision procedure is NP-hard, so some requests will
    blow past any in-process budget in ways [Budget.tick] cannot catch —
    a pebble-encoding allocation that OOMs before the next tick, runaway
    CPU inside a C-speed loop, a stack overflow that segfaults the
    native runtime, or a genuine solver bug.  Solves therefore run in
    forked worker processes capped by [setrlimit] (RLIMIT_AS,
    RLIMIT_CPU) and supervised by a parent-side wall-clock watchdog;
    results come back as length-prefixed pipe frames.

    Two shapes share that machinery.  {!execute} forks one child for one
    computation and reaps it (one-shot replays such as [cqc triage]).
    The {e pool} keeps long-lived workers: each is forked once, lazily,
    and then serves request after request over a pair of pipes, so a
    request costs a pipe round trip instead of a fork of the daemon's
    heap.

    The parent classifies every worker death into a
    {!Core.Error.crash_class} — signal, OOM, CPU rlimit, watchdog
    timeout, protocol garbage (half-written or unparseable frame),
    nonzero exit — and {!supervise} turns the classification into
    policy: the dead worker is replaced, the request is retried once on
    a fresh worker with a degraded budget and halved time limits, and a
    second crash yields a typed [worker_crash] response (code 6) plus a
    crash-dump artifact for [cqc triage].  A worker death costs one
    typed error response, never the daemon.

    Fork safety: a child immediately replaces the telemetry and
    fault-injection mutexes ({!Telemetry.detach_after_fork},
    {!Fault.relock_after_fork}) because either may have been held at
    fork time by a parent thread that no longer exists; the pool's
    [serve] function must do the same for any other lock it takes (the
    daemon relocks its template cache).  A pool worker closes every
    inherited descriptor but its own two pipe ends (and points stdin and
    stdout at [/dev/null]), so it holds no client connection or sibling
    worker's pipe open, and no process but the parent holds its pipes.
    A child that
    deadlocks anyway is reaped by the watchdog — fork-safety failures
    are survivable by construction, not assumed away. *)

type limits = {
  mem_bytes : int option;  (** RLIMIT_AS ceiling, bytes. *)
  cpu_seconds : int option;
      (** RLIMIT_CPU allowance per request, whole seconds. *)
  wall_seconds : float;  (** Parent-side watchdog deadline per request. *)
}

val default_limits : limits
(** 1 GiB address space, 20 s CPU, 30 s wall clock. *)

val degraded_limits : limits -> limits
(** The retry's limits: CPU and wall clock halved (wall floored at
    0.5 s), memory unchanged. *)

val execute :
  limits:limits ->
  id:Json.t ->
  (unit -> Json.t) ->
  (Json.t, Core.Error.crash_class * string) result
(** [execute ~limits ~id compute] runs [compute] in a sandboxed forked
    child and returns its response frame, or the classification of its
    death.  Total: never raises (even a failed [fork] is classified).
    Exceptions {e inside} [compute] do not count as crashes — the child
    converts them to typed responses via {!Protocol.error_of_exn}, so
    only process death (or a child-detected OOM) reaches the [Error]
    arm.  The [worker] fault site is consulted once per fork; a firing
    draw SIGKILLs the fresh child. *)

(** {2 The supervised pool} *)

type reply = {
  frames : Json.t list;
      (** The response frames of one request, in order. *)
  report : (string * Json.t) list;
      (** State the worker reports back with every reply — the daemon
          sends its cache statistics.  The parent keeps, per worker, the
          latest value of each key ({!reports}); a key left out of a
          reply keeps its previous value. *)
}

type pool

val create_pool :
  ?limits:limits ->
  ?retry_nodes:int ->
  ?max_workers:int ->
  serve:(node_cap:int option -> string -> reply) ->
  unit ->
  pool
(** A pool of at most [max_workers] (default 1) persistent workers, none
    forked yet.  Each worker runs [serve ~node_cap line] on every
    request [line] it is sent: [node_cap] is [None] on a first attempt
    and [Some retry_nodes] on the degraded retry, whose node budget
    [serve] must clamp to it.  [retry_nodes] defaults to 20000.
    Exceptions out of [serve] become a typed error frame.

    Each worker sets RLIMIT_AS once, when it starts; before every
    request it re-arms the soft RLIMIT_CPU to its CPU time so far plus
    the request's [cpu_seconds], so the limit stays per request.  Workers
    fork lazily, on the first request that finds no idle one, and
    inherit the parent's memory copy-on-write.  When telemetry is
    enabled at fork time, a worker counts too and each reply carries its
    counter increments, which the parent adds to its own totals. *)

val pool_limits : pool -> limits

val retry_nodes : pool -> int

type stats = {
  live : int;  (** Workers forked and not yet reaped, idle or busy. *)
  spawned : int;  (** Workers forked over the pool's life. *)
  retired : int;
      (** Healthy workers let go: a surplus one after a retry, or at
          drain.  Every other worker that is no longer live died of a
          crash, so [spawned = live + retired + crashes_total] as long as
          no fork fails. *)
  completed : int;  (** Attempts that returned a non-crash response. *)
  retries : int;  (** First-crash restarts with a degraded budget. *)
  dumps : int;  (** Crash dumps spooled. *)
  crashes_total : int;
  crashes_signal : int;
  crashes_oom : int;
  crashes_cpu : int;
  crashes_watchdog : int;
  crashes_protocol : int;
  crashes_exit : int;
}

val stats : pool -> stats

val reports : pool -> (string * Json.t) list list
(** The latest report of every live worker that has sent one. *)

val supervise :
  pool ->
  id:Json.t ->
  dump:
    (crash:Core.Error.crash_class ->
    detail:string ->
    attempts:int ->
    string option) ->
  string ->
  Json.t
(** [supervise pool ~id ~dump line] is the crash policy around one
    request: send [line] to an idle worker (forking one if the pool is
    below its size, waiting for one otherwise) under the pool limits and
    the wall-clock watchdog, and answer [Json.List frames] with the
    worker's response frames.  A worker that dies, overruns the
    watchdog (it is SIGKILLed), sends a garbled frame or reports a
    [worker_crash] frame is replaced, and the request is retried once on
    a freshly forked worker with {!degraded_limits}.  On a second crash,
    call [dump] (which writes the spool artifact and returns its path,
    or [None]) and answer a typed [worker_crash] {e object} carrying the
    crash class and, when spooled, the ["dump"] path.  Bumps the pool
    counters and the [serve.worker.*] telemetry counters; the [worker]
    fault site is consulted once per attempt, and a firing draw SIGKILLs
    the worker about to serve it.  Total: never raises ([dump]
    exceptions are swallowed into [None]). *)

val shutdown : pool -> unit
(** Drain: close every idle worker's request pipe, so it exits at end of
    input, and reap it (SIGKILL after a 2 s grace).  Workers busy at the
    time are retired the same way when their request completes, and
    later requests get a typed [exit] crash instead of a new worker.
    Call it once no request is in flight, and [live] drops to 0. *)

val test_abort_hook : Relational.Structure.t -> unit
(** Test-only crash synthesis, consulted by the daemon's solve path just
    before solving.  When [CQCSP_TEST_ABORT=action:REL] is set {e and}
    the source structure has at least one tuple in relation [REL], the
    worker kills itself: [segv]/[abrt]/[kill] raise the corresponding
    signal, [exit] calls [_exit 3], [spin] burns CPU until a rlimit or
    the watchdog fires.  A no-op in every other case — in particular
    outside a sandbox child, so an in-process daemon can never trip it;
    because the hook only fires inside a worker, even an armed hook can
    only cost one typed response. *)
