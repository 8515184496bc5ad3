(** Process resource limits and descriptor hygiene, for the worker
    sandbox.

    A thin binding over [setrlimit(2)] (which the standard Unix library
    does not expose).  All functions are best-effort by design: they
    return [Ok ()] or [Error errno_message] and never raise, because
    they run in a freshly forked child where an exception would bypass
    the worker result protocol — and because a sandbox that cannot
    lower a limit is still supervised by the parent-side watchdog. *)

type resource =
  | Address_space  (** RLIMIT_AS, in bytes: caps every allocation path. *)
  | Cpu_time  (** RLIMIT_CPU, in seconds: the kernel sends SIGXCPU. *)

val set : resource -> int -> (unit, string) result
(** [set r v] sets both the soft and hard limit of [r] to [v]
    (bytes for {!Address_space}, whole seconds for {!Cpu_time}). *)

val set_soft : resource -> int -> (unit, string) result
(** [set_soft r v] moves only the soft limit of [r] to [v], clamped
    below the hard limit, which stays where it is.  The persistent
    sandbox worker re-arms its CPU ceiling this way before every request:
    lowering the hard limit, as {!set} does, could never be undone. *)

val current : resource -> int option
(** The current soft limit; [None] for unlimited or on error. *)

val close_fds_except : Unix.file_descr -> Unix.file_descr -> unit
(** [close_fds_except a b] closes every descriptor above stderr except
    [a] and [b].  For a freshly forked worker only: it must not hold the
    daemon's listening socket, client connections or sibling workers'
    pipes open, or their peers would never see end of file. *)
