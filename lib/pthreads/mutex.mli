(** Mutexes, with the paper's three locking protocols.

    The uncontended paths never enter the Pthreads kernel: the paper locks
    with a test-and-set executed inside a 7-instruction restartable atomic
    sequence that also records the owner (Figure 4), so that the priority
    protocols can find whom to boost.  Contention takes the slow path
    through the kernel: the waiter suspends in priority order and ownership
    is transferred directly by the unlocker to the highest-priority waiter.

    Protocols:
    - {!Types.No_protocol}: plain mutual exclusion;
    - {!Types.Inherit_protocol}: a contending thread boosts the owner to its
      own priority; on unlock the owner's priority is recomputed by a linear
      search over the mutexes it still holds;
    - {!Types.Ceiling_protocol}: the locker's priority is raised to the
      mutex's priority ceiling immediately on acquisition, and restored on
      unlock — by a stack pop (SRP) or by the inheritance-style linear
      search, depending on the engine's {!Types.ceiling_unlock_mode}
      (the Table 4 comparison). *)

open Types

val create :
  engine ->
  ?name:string ->
  ?protocol:mutex_protocol ->
  ?ceiling:int ->
  unit ->
  mutex
(** [ceiling] is required for [Ceiling_protocol] mutexes and must be at
    least the priority of every thread that will ever lock the mutex (the
    standard leaves violations undefined; we raise [Types.Error] with
    [Errno.EINVAL] on creation when out of range). *)

val lock : engine -> mutex -> unit
(** Acquire, suspending on contention.  Relocking a mutex the caller
    already holds raises [Types.Error] with [Errno.EDEADLK]
    (non-recursive mutexes; so does {!try_lock}).
    A mutex wait is {e not} an interruption point: a controlled
    cancellation pends across it. *)

val try_lock : engine -> mutex -> bool

val unlock : engine -> mutex -> unit
(** Release; transfers ownership to the highest-priority waiter, if any,
    and lowers the unlocker's priority per the protocol.
    @raise Types.Error with [Errno.EPERM] if the caller is not the
    owner. *)

val lock_after_wait : engine -> mutex -> unit
(** Reacquisition path used by [Cond.wait]: like {!lock} but without the
    entry checkpoint, so the mutex is reacquired before any interrupt
    handler runs (the paper's wrapper guarantee). *)

val release_in_kernel : engine -> mutex -> unit
(** Release while already inside the Pthreads kernel, without dispatching —
    the "unlocked atomically with the suspension of the thread" half of a
    conditional wait. *)

val owner_tid : mutex -> int option
val is_locked : mutex -> bool
val waiter_count : mutex -> int
val lock_count : mutex -> int
val contention_count : mutex -> int
