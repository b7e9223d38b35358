(** The concurrency monitor: vector-clock race detection, lock-order
    deadlock prediction and held-at-exit checks over the engine's
    sanitizer events of the engine probe ({!Pthreads.Engine.subscribe}).

    Unlike the DPOR explorer ([Check.Explore]), which enumerates
    schedules, the monitor draws its conclusions from {e one} execution:

    - {b Races}: FastTrack-style vector clocks over annotated accesses
      ([Check.Explore.touch_read]/[touch_write]), with happens-before
      edges from mutex release→acquire, cond signal/broadcast→wake,
      create→child and join→return.  An Eraser-style lockset pass
      catches unprotected sharing even when this schedule ordered the
      accesses.
    - {b Deadlocks}: every acquisition while holding other locks adds
      held→acquired edges (with shared/exclusive modes for rwlocks and
      relaxed ownership for semaphores); a cycle predicts a deadlock
      even if it did not occur on this schedule.  Cycles that cannot
      deadlock (all-shared, single-thread, or serialized by a common
      gate lock) are filtered.
    - {b Leaks}: a thread terminating while holding a mutex or rwlock.

    Findings are also emitted as [Trace.Note] events ("sanitizer: ..."),
    which [Obs.Chrome_trace] renders as Perfetto instants. *)

type t

val attach : Pthreads.Types.engine -> t
(** Subscribe the monitor to an engine's probe.  Attach before
    [Pthread.start] to observe the whole run. *)

val detach : t -> unit
(** Stop observing (unsubscribe this monitor only; other subscribers,
    such as a fault injector, keep firing); the accumulated findings
    remain readable. *)

val report : t -> Report.t
(** The findings so far (races and leaks in discovery order, cycles as
    edge lists). *)

val observe :
  mk:(unit -> Pthreads.Types.engine) ->
  unit ->
  Report.t * Pthreads.Types.stop_reason option
(** Build a fresh engine with [mk], run it to completion under the
    monitor, and return the findings plus the stop reason if the process
    died (deadlock, fatal signal).  The report is valid either way —
    prediction does not require the failure to manifest. *)
