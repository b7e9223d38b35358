(** Condition variables.

    A conditional wait releases the associated mutex atomically with the
    suspension and reacquires it before returning — in particular before any
    user signal handler runs (the paper's wrapper reacquires the mutex and
    terminates the conditional wait when a handler interrupts it).  Wakeups
    go to the highest-priority waiter.  Callers must re-test their predicate
    in a loop: wakeups may be spurious (handler interruption, timeout
    races), exactly as the standard allows. *)

open Types

type wait_result =
  | Signaled  (** woken by [signal]/[broadcast] *)
  | Interrupted  (** woken to run a signal handler; predicate must be re-tested *)
  | Timed_out  (** the deadline of [wait_until] or [wait_for] passed *)

val create : engine -> ?name:string -> unit -> cond

val wait : engine -> cond -> mutex -> wait_result
(** The caller must hold the mutex.  An interruption point for controlled
    cancellation.  @raise Types.Error with [Errno.EPERM] if the mutex is
    not held, [Errno.EINVAL] if the condition variable is already bound to
    a different mutex. *)

val wait_until : engine -> cond -> mutex -> deadline_ns:int -> wait_result
(** Timed wait with an {e absolute} deadline, in virtual-clock nanoseconds
    (the same clock [Engine.now]/[Pthread.now] read — no other clock
    exists here).  This matches [pthread_cond_timedwait]'s [abstime]
    contract, so a virtual-clock jump past the deadline times the wait out
    at the next poll.  A deadline already in the past still releases and
    reacquires the mutex atomically, then reports [Timed_out]: the caller's
    predicate re-test stays mandatory. *)

val wait_for : engine -> cond -> mutex -> timeout_ns:int -> wait_result
(** {!wait_until} with a {e relative} timeout: the deadline is
    [Engine.now + timeout_ns], fixed at call time — a later clock jump
    shortens the remaining wait rather than extending it. *)

val signal : engine -> cond -> unit
(** Make the highest-priority waiter ready (no-op when none). *)

val broadcast : engine -> cond -> unit

val waiter_count : cond -> int
