(** The real-Unix backend: actual file descriptors, host signals, host
    monotonic time — pumped into the same {!Unix_kernel} state machine the
    virtual backend uses.

    - The kernel's {!Clock} is synchronized from {!Real_clock}
      ([CLOCK_MONOTONIC] nanoseconds) at every pump and wait, so timers
      armed on the shared timing wheel fire against host monotonic time.
    - A [ppoll(2)] loop records the requester of each fired one-shot
      watch with {!Unix_kernel.record_io_ready}; the engine wakes it
      directly, without a signal.  Any readiness fires a watch, hang-up
      and error included, so a reader sees end of stream or the error.
      There is no FD_SETSIZE ceiling.
    - An idle [wait] blocks until the next deadline with a nanosecond
      timeout.  The first blocking wait on each host thread sets that
      thread's timer slack to 1 ns (Linux), which otherwise defers every
      timed wakeup by ~50 us.
    - Host signals listed in [forward_signals] are caught with
      [Sys.set_signal] and re-posted into the simulated process signal
      state as [origin External].
    - A self-pipe doorbell sits in every idle [ppoll]: [wake] (from any
      domain) and the forwarded-signal handlers write it, so an idle
      [wait] with no deadline blocks until an fd, a signal or a wake.
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
