/* Host seams of the unix backend: the monotonic clock, the epoll wait
   and the calls on its non-blocking sockets.

   Linux stretches a poll's timeout by a slack of max(the thread's timer
   slack, timeout / 1000) (fs/select.c, select_estimate_accuracy).  The
   timer slack is 50 us by default; the first blocking wait on each host
   thread sets it to 1 ns, which leaves timeout / 1000: under 1 us for a
   wait shorter than 1 ms, but 100 us on a 100 ms wait.  The caller's
   polling window (real_kernel.ml, 200 us) absorbs that slack for any
   block shorter than 200 ms. */

#define _GNU_SOURCE
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdint.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>
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

/* The answer of a call on a non-blocking descriptor, as an int: its
   result; -EAGAIN where it would block; 0 for a reset or broken
   connection when [eof] (the reader sees end of stream).  Any other
   error raises.  No call here blocks, so none releases the runtime
   lock. */
static value answer(intnat r, int eof, const char *call)
{
  if (r >= 0) return Val_long(r);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINPROGRESS
      || errno == EALREADY)
    return Val_int(-EAGAIN);
  if (eof && (errno == ECONNRESET || errno == EPIPE)) return Val_int(0);
  caml_uerror(call, Nothing);
}

value pthreads_epoll_create(value unit)
{
  return answer(epoll_create1(EPOLL_CLOEXEC), 0, "epoll_create1");
}

/* One edge-triggered registration for the life of [fd]; its events carry
   [handle]. */
value pthreads_epoll_add(value ep, value fd, value handle)
{
  struct epoll_event ev = { EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                            { .u64 = Long_val(handle) } };
  answer(epoll_ctl(Int_val(ep), EPOLL_CTL_ADD, Int_val(fd), &ev), 0,
         "epoll_ctl");
  return Val_unit;
}

/* Wait at most [timeout] ns (-1 = no limit) and store each event in [out]
   as a pair: its handle, then 1 (readable), 2 (writable) or 3 (both: an
   error or a hang-up).  Returns the pair count; an interrupted wait runs
   the pending signal handlers and reports nothing.  A blocking wait
   sleeps in ppoll on the epoll descriptor, for its nanosecond timeout,
   and then takes the events without waiting. */
value pthreads_epoll_wait(value ep, value out, value vtimeout)
{
  CAMLparam1(out);
  struct epoll_event ev[64];
  intnat timeout = Long_val(vtimeout);
  struct timespec ts = { timeout / 1000000000, timeout % 1000000000 };
  struct pollfd pfd = { Int_val(ep), POLLIN, 0 };
  int max = Wosize_val(out) / 2 < 64 ? Wosize_val(out) / 2 : 64, n = 1, i;
  if (timeout != 0) {
    static __thread int slack_set = 0;
    if (!slack_set) slack_set = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
    caml_enter_blocking_section();
    n = ppoll(&pfd, 1, timeout < 0 ? NULL : &ts, NULL);
    caml_leave_blocking_section();
  }
  if (n > 0) n = epoll_wait(Int_val(ep), ev, max, 0);
  if (n < 0) {
    if (errno != EINTR) caml_uerror("epoll_wait", Nothing);
    caml_process_pending_actions();
    n = 0;
  }
  for (i = 0; i < n; i++) {
    uint32_t e = ev[i].events, both = EPOLLERR | EPOLLHUP;
    Store_field(out, 2 * i, Val_long(ev[i].data.u64));
    Store_field(out, 2 * i + 1,
                Val_int((e & (EPOLLIN | EPOLLRDHUP | both) ? 1 : 0)
                        | (e & (EPOLLOUT | both) ? 2 : 0)));
  }
  CAMLreturn(Val_int(n));
}

static struct sockaddr_in loopback(value port)
{
  struct sockaddr_in a = { .sin_family = AF_INET,
                           .sin_port = htons(Int_val(port)),
                           .sin_addr.s_addr = htonl(INADDR_LOOPBACK) };
  return a;
}

/* Start the connect, or learn how it went: 0 once connected, -EAGAIN
   while under way.  A refusal raises: a repeated connect reports the
   error the socket holds (its SO_ERROR). */
value pthreads_sock_connect(value fd, value port)
{
  struct sockaddr_in a = loopback(port);
  int r = connect(Int_val(fd), (struct sockaddr *)&a, sizeof a);
  return r < 0 && errno == EISCONN ? Val_int(0) : answer(r, 0, "connect");
}

/* Accept into [out.(0)] and answer 0, or -EAGAIN. */
value pthreads_sock_accept(value fd, value out)
{
  int one = 1,
      c = accept4(Int_val(fd), NULL, NULL, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (c < 0) return answer(c, 0, "accept");
  setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Store_field(out, 0, Val_int(c));
  return Val_int(0);
}

/* MSG_NOSIGNAL: a write to a reset connection answers EPIPE instead of
   raising SIGPIPE, whose default action ends the process.  The caller
   has checked that [pos, pos + len) lies in [buf]. */
value pthreads_sock_io(value fd, value buf, value pos, value len, value wr)
{
  char *p = (char *)Bytes_val(buf) + Long_val(pos);
  return Bool_val(wr)
             ? answer(send(Int_val(fd), p, Long_val(len), MSG_NOSIGNAL), 1,
                      "write")
             : answer(read(Int_val(fd), p, Long_val(len)), 1, "read");
}
