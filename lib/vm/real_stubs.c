/* Host seams of the unix backend: the monotonic clock and the idle wait.

   Linux stretches every timed sleep of a thread by its timer slack (50 us
   by default), so a deadline-driven wait overshoots by about that much.
   The first blocking wait on each host thread sets the slack to 1 ns. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <time.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

value pthreads_monotonic_ns(value unit)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}

/* Real_kernel's [ppoll]; dir 0 = readable, 1 = writable.  An interrupted
   wait runs the pending signal handlers and reports nothing ready. */
value pthreads_ppoll(value fds, value dirs, value revents, value vn,
                     value vtimeout)
{
  CAMLparam5(fds, dirs, revents, vn, vtimeout);
  intnat n = Long_val(vn), timeout = Long_val(vtimeout), i;
  struct pollfd small[64];
  struct pollfd *p = n <= 64 ? small : malloc(n * sizeof *p);
  struct timespec ts = { timeout / 1000000000, timeout % 1000000000 };
  int r, err;
  if (p == NULL) caml_raise_out_of_memory();
  for (i = 0; i < n; i++) {
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = Int_val(Field(dirs, i)) ? POLLOUT : POLLIN;
    p[i].revents = 0;
  }
  if (timeout == 0) {
    r = ppoll(p, n, &ts, NULL);
  } else {
#ifdef __linux__
    static __thread int slack_set = 0;
    if (!slack_set) slack_set = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
#endif
    caml_enter_blocking_section();
    r = ppoll(p, n, timeout < 0 ? NULL : &ts, NULL);
    caml_leave_blocking_section();
  }
  err = errno;
  for (i = 0; r > 0 && i < n; i++)
    Store_field(revents, i, Val_int(p[i].revents));
  if (p != small) free(p);
  if (r < 0) {
    if (err != EINTR) caml_unix_error(err, "ppoll", Nothing);
    caml_process_pending_actions();
    r = 0;
  }
  CAMLreturn(Val_int(r));
}
