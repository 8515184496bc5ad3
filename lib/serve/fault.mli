(** Deterministic fault injection for the serve stack.

    A {e site} is a named point on a daemon boundary — frame parsing,
    admission, template-cache builds, the solver call, response
    serialization — where {!trip} is called on every pass.  When a site is
    {e armed}, each pass draws from a seeded deterministic PRNG and, with
    the armed probability, raises {!Injected}; the isolation boundary must
    convert that into a typed error response like any other failure.  The
    chaos suite and the CI smoke job arm sites at known seeds/rates and
    assert the loop never dies and every response stays well-typed.

    Arming is process-global (the daemon is one process) and guarded by a
    mutex, so concurrent request threads draw from one reproducible
    sequence: the {e set} of trips is deterministic per (seed, rate,
    number of draws), even though which thread observes each trip is
    scheduling-dependent. *)

type site =
  | Parse  (** Before a frame is parsed. *)
  | Admit  (** On admission-control entry. *)
  | Cache_build  (** At the start of a template-cache build. *)
  | Solve  (** Just before the solver is invoked. *)
  | Respond  (** Before a response is serialized. *)
  | Worker
      (** When a request is handed to a sandboxed worker.  Unlike the other
          sites this one is consulted with {!fires}, not {!trip}: a
          firing draw makes the supervisor SIGKILL that worker,
          simulating an OOM kill / machine fault, instead of raising. *)

val all_sites : site list

val site_name : site -> string
(** ["parse"], ["admit"], ["cache"], ["solve"], ["respond"],
    ["worker"]. *)

exception Injected of site
(** The injected failure.  Escapes of this exception past the request
    boundary are daemon bugs; the chaos suite hunts them. *)

val arm : string -> unit
(** [arm spec] arms sites from a spec of comma-separated
    [site:seed:rate] triples, where [site] is a {!site_name} or ["all"],
    [seed] a nonnegative integer and [rate] a probability in [\[0, 1\]]:
    e.g. ["solve:42:0.1,parse:7:0.05"].  Replaces any previous arming.
    @raise Invalid_argument on a malformed spec. *)

val arm_from_env : unit -> unit
(** Arm from [CQCSP_FAULT] when set and nonempty; {!disarm} otherwise.
    @raise Invalid_argument on a malformed spec. *)

val disarm : unit -> unit
(** Disable all sites and forget injection counts. *)

val armed : unit -> bool

val trip : site -> unit
(** Draw at [site]; no-op when nothing armed covers the site.
    @raise Injected with the armed probability. *)

val fires : site -> bool
(** Draw at [site] and report whether the fault fires, without raising;
    a firing draw is counted exactly like a {!trip}.  The worker-kill
    chaos path uses this to decide whether to SIGKILL a child. *)

val relock_after_fork : unit -> unit
(** Replace the module mutex with a fresh one.  For freshly forked
    children only (single-threaded by construction): the inherited mutex
    may have been held at fork time by a parent thread that no longer
    exists, and taking it would deadlock the child until the watchdog
    fires. *)

val injected_count : unit -> int
(** Total faults injected since the last {!arm}/{!disarm}. *)

val injected_per_site : unit -> (string * int) list
(** Injection counts by site name, sorted, omitting zero rows. *)
