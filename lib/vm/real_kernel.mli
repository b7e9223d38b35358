(** The real-Unix backend: actual file descriptors, host signals, host
    monotonic time — pumped into the same {!Unix_kernel} state machine the
    virtual backend uses.  Linux only (epoll).

    - The kernel's {!Clock} is synchronized from {!Real_clock}
      ([CLOCK_MONOTONIC] nanoseconds) at every pump and wait, so timers
      armed on the shared timer heap fire against host monotonic time.
    - Each socket is registered once with an edge-triggered epoll set and
      has a read and a write slot ({!Backend.net_watch}).  A poll fires
      the slots its events name, both on error or hang-up, and wakes
      their requesters through {!Unix_kernel.io_ready}, without a
      signal.  With a slot filled the pump polls once 16 times its
      last empty poll's cost has passed since any poll, or at once
      after a poll that found events; no poll's cost grows with idle
      sockets.
    - An idle [wait] with a deadline blocks (in [ppoll] on the epoll
      descriptor, nanosecond timeout) until 200 us before it; inside
      that window it polls once with a zero timeout and returns [true],
      so the engine's idle loop waits again and is itself the spin,
      until the deadline, an event or a ring.  With no deadline it
      blocks until an event.  A block cut short by a host signal
      returns [true] too, before the deadline, and the next wait blocks
      again.  Waking from a block costs the host several us (~90 us
      after 20 ms on a KVM guest), which the window absorbs, at the
      price of up to 200 us of CPU per timed idle wait.  The
      first blocking wait on each host thread sets that thread's timer
      slack to 1 ns (Linux); a poll's timeout is still stretched by
      1/1000 of itself (100 us on a 100 ms block), which the window
      absorbs for any block shorter than 200 ms.  A deadlock verdict
      ([false], below) returns at once, without polling.
    - Host signals listed in [forward_signals] are caught with
      [Sys.set_signal] and re-posted into the simulated process signal
      state as [origin External].
    - A self-pipe doorbell is one more registration: [wake] (from any
      domain) and the forwarded-signal handlers write it, so an idle
      [wait] with no deadline blocks until a socket, a signal or a wake.
      With no deadline and no filled slot it blocks only if some
      forwarded signal could make a thread runnable
      ({!Unix_kernel.signal_wakes}); otherwise it returns [false], and
      the engine reports the deadlock.
    - Sockets are nonblocking loopback TCP, exposed as the
      {!Backend.net_ops} small-int handles.

    Nothing here is deterministic; the model checker, sanitizer and fault
    layers require the virtual backend. *)

val create :
  ?profile:Cost_model.profile ->
  ?forward_signals:(int * Sigset.signo) list ->
  unit ->
  Backend.t
(** Build a Unix-loop backend.  [profile] defaults to {!Cost_model.free}
    so simulated cost charges do not run ahead of host time.
    [forward_signals] maps host signals (OCaml [Sys.sig*] numbers) to
    simulated signal numbers; it defaults to SIGUSR1/SIGUSR2/SIGHUP.
    Call [shutdown] on the result to close fds and restore host signal
    handlers (idempotent). *)
