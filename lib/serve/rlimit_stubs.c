/* setrlimit binding for the sandboxed worker children.
 *
 * The OCaml standard Unix library exposes fork/waitpid/kill but not
 * setrlimit, so the sandbox's memory and CPU ceilings need this one
 * stub.  The interface is deliberately tiny: an integer resource tag
 * (0 = RLIMIT_AS, 1 = RLIMIT_CPU), one limit value, and an errno-style
 * integer result (0 on success) so the caller decides whether a
 * failure is fatal — in the child it is not: a sandbox that cannot
 * lower a limit still has the parent-side watchdog.
 *
 * cqcsp_setrlimit_soft moves the soft limit alone: a long-lived worker
 * re-arms its per-request CPU ceiling with it, which it could not do
 * once the hard limit had been lowered.
 *
 * For RLIMIT_CPU the hard limit gets a grace second above the soft
 * limit: with soft == hard, Linux delivers SIGKILL (hard) instead of
 * SIGXCPU (soft), which would make a CPU overrun indistinguishable
 * from an OOM kill in the parent's classification.
 */

#include <caml/mlvalues.h>
#include <dirent.h>
#include <errno.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

CAMLprim value cqcsp_setrlimit(value v_resource, value v_limit)
{
  int resource;
  struct rlimit rl;

  switch (Int_val(v_resource)) {
  case 0:
    resource = RLIMIT_AS;
    break;
  case 1:
    resource = RLIMIT_CPU;
    break;
  default:
    return Val_int(EINVAL);
  }

  rl.rlim_cur = (rlim_t)Long_val(v_limit);
  rl.rlim_max = (rlim_t)Long_val(v_limit);
  if (resource == RLIMIT_CPU)
    rl.rlim_max += 1;
  if (setrlimit(resource, &rl) != 0)
    return Val_int(errno);
  return Val_int(0);
}

CAMLprim value cqcsp_setrlimit_soft(value v_resource, value v_limit)
{
  int resource;
  struct rlimit rl;

  switch (Int_val(v_resource)) {
  case 0:
    resource = RLIMIT_AS;
    break;
  case 1:
    resource = RLIMIT_CPU;
    break;
  default:
    return Val_int(EINVAL);
  }
  if (getrlimit(resource, &rl) != 0)
    return Val_int(errno);
  rl.rlim_cur = (rlim_t)Long_val(v_limit);
  /* Soft at the hard limit would make the kernel's SIGKILL race the
     SIGXCPU that classifies a CPU overrun, so stay one second below. */
  if (rl.rlim_max != RLIM_INFINITY && rl.rlim_cur >= rl.rlim_max)
    rl.rlim_cur = resource == RLIMIT_CPU && rl.rlim_max > 0 ? rl.rlim_max - 1
                                                            : rl.rlim_max;
  if (setrlimit(resource, &rl) != 0)
    return Val_int(errno);
  return Val_int(0);
}

CAMLprim value cqcsp_getrlimit_cur(value v_resource)
{
  int resource;
  struct rlimit rl;

  switch (Int_val(v_resource)) {
  case 0:
    resource = RLIMIT_AS;
    break;
  case 1:
    resource = RLIMIT_CPU;
    break;
  default:
    return Val_long(-1);
  }
  if (getrlimit(resource, &rl) != 0)
    return Val_long(-1);
  if (rl.rlim_cur == RLIM_INFINITY)
    return Val_long(-1);
  return Val_long((long)rl.rlim_cur);
}

/* Close every descriptor above stderr except two, in a freshly forked
 * worker: it must not keep the daemon's listening socket, client
 * connections or sibling workers' pipes open, or their peers would
 * never see end of file.  The open descriptors are listed from
 * /proc/self/fd (collected first: closing while reading the directory
 * would close the directory's own descriptor); where that is missing,
 * every number below a capped RLIMIT_NOFILE is tried. */
CAMLprim value cqcsp_close_fds_except(value v_keep1, value v_keep2)
{
  int keep1 = Int_val(v_keep1), keep2 = Int_val(v_keep2);
  int fds[4096];
  int n = 0, i;
  DIR *dir = opendir("/proc/self/fd");

  if (dir != NULL) {
    struct dirent *e;
    int self = dirfd(dir);
    while ((e = readdir(dir)) != NULL && n < 4096) {
      int fd = atoi(e->d_name);
      if (fd > 2 && fd != self && fd != keep1 && fd != keep2)
        fds[n++] = fd;
    }
    closedir(dir);
    for (i = 0; i < n; i++)
      close(fds[i]);
  } else {
    long max = sysconf(_SC_OPEN_MAX);
    if (max < 0 || max > 65536)
      max = 65536;
    for (i = 3; i < max; i++)
      if (i != keep1 && i != keep2)
        close(i);
  }
  return Val_unit;
}
