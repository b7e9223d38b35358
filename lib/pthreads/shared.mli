(** Cross-process synchronization objects "allocated in a shared data
    space" — the paper's first future-work item, built on [Machine].

    A shared mutex or condition variable lives outside any single process;
    threads of different processes (engines) block on it and are woken by
    whichever process's library releases it.  As the paper predicts, this
    is less efficient than intra-process synchronization ("the libraries of
    the two processes would have to communicate somehow"): every operation
    pays a shared-memory access charge, wakeups cross process boundaries
    (forcing a machine-level process switch), and no priority protocol is
    enforced across processes — waiters queue FIFO, because comparing
    priorities between processes is meaningless without a global scheduler.
    The [shared] bench section quantifies the overhead. *)


type mutex

val mutex_create : ?name:string -> unit -> mutex
(** Allocate a mutex in the shared data space (no process owns it). *)

val lock : Pthread.proc -> mutex -> unit
(** Acquire for the calling thread of the calling process; suspends on
    contention (FIFO, cross-process).
    @raise Invalid_argument on relock by the same thread. *)

val try_lock : Pthread.proc -> mutex -> bool

val unlock : Pthread.proc -> mutex -> unit
(** Release; hands the mutex to the oldest waiter, possibly in another
    process.  @raise Invalid_argument if the caller does not hold it. *)

val owner : mutex -> (string * int) option
(** [(process name if known, tid)] of the holder — for tests; the process
    name is the engine's main-thread name. *)

type cond

val cond_create : ?name:string -> unit -> cond

val wait : Pthread.proc -> cond -> mutex -> unit
(** Release the shared mutex atomically with the suspension, reacquire it
    before returning.  Wakeups may be spurious; re-test the predicate. *)

val signal : Pthread.proc -> cond -> unit
(** Wake the oldest waiter, in whichever process it lives. *)

val broadcast : Pthread.proc -> cond -> unit

val waiter_count : mutex -> int

(** {1 Cross-process counting semaphores}

    Layered on the shared mutex and condition variable, exactly as the
    paper layers local semaphores on local primitives. *)

type semaphore

val semaphore_create : ?name:string -> int -> semaphore
(** @raise Invalid_argument on a negative initial value. *)

val sem_wait : Pthread.proc -> semaphore -> unit
val sem_try_wait : Pthread.proc -> semaphore -> bool
val sem_post : Pthread.proc -> semaphore -> unit

val sem_value : semaphore -> int
(** Instantaneous (racy) value, for tests and monitoring. *)
