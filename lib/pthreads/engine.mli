(** The Pthreads kernel: monolithic monitor, dispatcher, signal machinery
    and the scheduler loop.

    This module is the heart of the library — everything the paper describes
    under "Pthreads Kernel", "Signal Delivery", "The Dispatcher", "Signal
    Handling", "Fake Calls" and "Thread Cancellation".  Synchronization
    objects ([Mutex], [Cond]) and the thread-management API ([Thread_ops])
    are built on the operations exported here; user programs go through the
    [Pthread] facade.

    Concurrency model: threads are OCaml fibers multiplexed over one
    scheduler loop.  A thread gives up the processor by performing
    {!Types.Suspend}; the loop answers with a {!Types.wake} explaining why
    it was resumed.  Signals arrive at {e checkpoints} (every API call and
    every slice of [Pthread.busy]); a signal noticed while the kernel flag
    is set is logged and deferred to dispatch time, exactly as in the
    paper's Figure 2. *)

open Types

(** {1 Construction and the scheduler} *)

val make :
  ?clock:Vm.Clock.t ->
  ?backend:Vm.Backend.t ->
  ?main:(unit -> int) ->
  config ->
  engine
(** Build a simulated process whose main thread (tid 0) will run [main].
    Without [main] the process starts with no thread, and its one unit of
    [live_count] belongs to the caller: the scheduler idles in the
    backend's [wait] until the caller gives the unit back (from the
    backend's [pump]) and every thread has terminated.  Installs the universal signal handler for all maskable signals, the
    chooser of [cfg.perverted] (none for [No_perversion]) and, for a
    round-robin policy, arms the time-slice interval timer.  [clock] lets
    several processes of one [Machine] share a time line.  [backend]
    selects the event source (default: the deterministic virtual backend,
    [Vm.Backend.virtual_]); when given, [clock] is ignored — the backend
    owns its kernel and clock. *)

val run_scheduler : engine -> unit
(** Run until every thread has terminated.
    @raise Types.Process_stopped on deadlock or on the default action of an
    unhandled signal. *)

val default_config : Vm.Cost_model.profile -> config

(** {1 Monolithic monitor (the "Pthreads kernel")} *)

val enter_kernel : engine -> unit
val leave_kernel : engine -> unit
(** Consult the chooser ([At_kernel_exit]), then reset the kernel flag,
    or invoke the dispatcher when the dispatcher flag was set. *)

val in_kernel : engine -> (unit -> 'a) -> 'a
(** Run the function with the kernel flag set, then restore the flag's
    previous value (also on an exception).  For work applied from outside
    a kernel operation — a fault primitive, a backend pump — that edits
    queues but must not dispatch: a switch it requests only sets the
    dispatcher flag. *)

val block : engine -> wake
(** Give up the processor.  The caller must hold the kernel flag, have set
    [current.state] to [Blocked _] and enqueued itself on the relevant wait
    queue.  Returns, outside the kernel, when the thread is resumed. *)

val checkpoint : engine -> unit
(** A preemption point: poll the substrate for deliverable signals (running
    the universal handler), dispatch if required, then execute any fake
    calls pending on the current thread. *)

val yield : engine -> unit
(** Reposition the current thread at the tail of its priority queue and
    dispatch (the Table 2 "thread context switch (yield)" operation). *)

val mutex_acquired : engine -> unit
(** Called by [Mutex] after every successful lock, outside the kernel:
    consults the chooser ([At_mutex_acquired]).  When it names a bucket,
    the thread takes a kernel round trip and, if another thread is live,
    is requeued there and switched out at the exit. *)

(** {1 Threads} *)

val current : engine -> tcb
val find_thread : engine -> int -> tcb option
(** Live or terminated-but-unjoined thread by id — O(1) via the tid
    index. *)

val is_registered : engine -> tcb -> bool
(** Whether this very TCB is still in the thread table (not reaped). *)

val iter_threads : engine -> (tcb -> unit) -> unit
(** All registered threads in creation order.  The callback may unblock or
    mutate the visited thread but must not unregister threads. *)

val fold_threads : engine -> ('a -> tcb -> 'a) -> 'a -> 'a
val thread_list : engine -> tcb list
(** Materialized snapshot in creation order (debugger-grade, allocates). *)

val census_add_mutex : engine -> mutex -> unit
val census_add_cond : engine -> cond -> unit
(** Enter a new object in the census the invariant checker walks. *)

val iter_mutexes : engine -> (mutex -> unit) -> unit
val iter_conds : engine -> (cond -> unit) -> unit
(** The census in creation order. *)

val fresh_tid : engine -> int
val fresh_obj_id : engine -> int
(** Identifier mints for TCBs and synchronization objects. *)

val register_thread : engine -> tcb -> unit
(** Account a freshly created TCB and, unless it is deferred, make it
    ready.  Must be called inside the kernel. *)

val reap_thread : engine -> tcb -> unit
(** Release a terminated thread's resources after a join/detach. *)

val unblock : engine -> tcb -> wake -> unit
(** Remove a blocked thread from its wait queue and make it ready; sets the
    dispatcher flag if it now outranks the running thread. *)

val unblock_core : engine -> tcb -> wake -> bool
(** Like {!unblock} but without the preemption test; returns whether the
    thread became ready.  Mass wakeups (broadcast, joiner release, expired
    sleepers) wake every thread through this and make one
    {!flag_if_preempts} call with the best woken priority, so a burst of n
    wakeups costs one dispatcher-flag round instead of n. *)

val flag_if_preempts : engine -> int -> unit
(** Set the dispatcher flag if a ready thread of the given priority
    outranks the running thread (the second half of {!unblock}). *)

val set_wait_deadline : engine -> tcb -> deadline:int -> unit
(** Begin a timed wait: record the absolute deadline on the TCB and index
    it in the sleep index ([Cond] timed waits, [Pthread.delay]).  Cleared by
    [unblock] (to {!Types.no_deadline}); the heap entry is lazily
    discarded. *)

(** {1 I/O waits}

    The one blocking idiom of [Net]: a waiter queue per I/O object, used
    like a condition variable without a mutex — the kernel flag is the
    monitor.  An I/O wait is not in the census. *)

val io_wait_create : engine -> name:string -> io_wait
(** A fresh, empty I/O wait with footprint key [key_io io_id]. *)

val io_block : engine -> io_wait -> unit
(** Suspend the current thread on the wait.  Called inside the kernel,
    right after the caller found its condition false, and returns inside
    the kernel after any wake — normal, or interrupted by a signal
    handler — so the caller loops on its condition.  An interruption
    point: a pending or arriving cancellation raises
    {!Types.Thread_exit_exn} (outside the kernel). *)

val io_wake_one : engine -> io_wait -> unit
(** Make the best waiter ready (none: no-op) and publish the caller's
    happens-before clock at the key ({!san_publish}) for whoever later
    {!san_merge}s it.  Inside the kernel. *)

val io_wake_all : engine -> io_wait -> unit
(** {!io_wake_one} for every waiter, with one preemption test. *)

(** {1 Priorities} *)

val set_effective_prio : engine -> tcb -> int -> at_head:bool -> unit
(** Change a thread's effective priority, repositioning it in whatever
    queue it occupies and propagating inheritance down a blocking chain.
    [at_head] places a ready thread at the head of its new level — the
    paper argues protocol-induced changes must not penalize the thread. *)

val recompute_inherited_prio : engine -> tcb -> unit
(** The inheritance protocol's unlock-side linear search: effective
    priority becomes the maximum of the base priority and the priorities of
    threads contending for any still-held mutex. *)

(** {1 Signals} *)

val send_signal : engine -> signo -> code:int -> origin:Vm.Unix_kernel.origin -> unit
(** Direct a signal through the thread-level delivery model (the internal
    path: [pthread_kill], cancellation, synchronous faults).  Must be
    called inside the kernel; sets the dispatcher flag. *)

val post_external : engine -> signo -> ?code:int -> unit -> unit
(** Generate a process-level (external) signal through the simulated UNIX
    kernel; it will be demultiplexed by the universal handler at the next
    checkpoint. *)

val drain_fake_calls : engine -> unit
(** Execute the fake-call frames pending on the current thread: the wrapper
    saves errno and the signal mask, runs the user handler, restores both
    and re-examines pended signals.  A [Fake_exit] frame raises
    {!Types.Thread_exit_exn}. *)

val recheck_thread_pending : engine -> tcb -> unit
(** Re-run the action rules for thread-pended signals that the thread's
    current mask now admits. *)

val recheck_proc_pending : engine -> unit
(** Retry recipient resolution for process-pended signals (rule 6). *)

val test_cancel : engine -> unit
(** An interruption point ([pthread_testintr]): act on a pending
    cancellation request in enabled/controlled state. *)

val act_cancel : engine -> tcb -> unit
(** Act on a cancellation request now: interruptibility becomes disabled,
    all other signals are masked, and a fake call to [pthread_exit] is
    pushed (Table 1's "acted upon" rows). *)

(** {1 Time} *)

val now : engine -> int
val charge : engine -> int -> unit
(** Charge instructions of library code to the virtual clock. *)

val busy : engine -> ns:int -> unit
(** Simulated user computation: advance the clock in slices with a
    checkpoint per slice, so preemption and signal delivery can occur
    mid-computation. *)

val trace : engine -> tcb -> Vm.Trace.kind -> unit

val tracing : engine -> bool
(** Whether {!trace} records anything: test it before building a kind that
    carries a payload, which allocates even when tracing is off. *)

(** {1:probe The engine probe}

    Every observer sees the engine through one subscriber list of
    {!Types.probe} events.  With no subscriber every emission point is one
    test of the list and allocates nothing. *)

val subscribe : engine -> (probe -> unit) -> unit
(** Add a subscriber; subscribers see each event in registration order.
    A subscriber runs synchronously inside the engine — from the thread
    the event describes, or from the scheduler loop for
    {!Types.Switch_in} — and must not block or dispatch.  It may raise:
    raising from [Switch_in] vetoes the dispatch, and the exception
    propagates out of {!run_scheduler}. *)

val unsubscribe : engine -> (probe -> unit) -> unit
(** Remove the first subscriber physically equal to the given function
    (no-op when absent); other subscribers keep firing. *)

(** {1 The chooser and schedule exploration}

    [touch] lets synchronization modules report which objects each step
    accessed (the footprints that drive the [Check.Explore] model
    checker's partial-order reduction, as {!Types.Touch} probe events). *)

val set_chooser : engine -> chooser option -> unit
(** Install (or clear) the one chooser slot; the last chooser installed
    wins ([make] installs [cfg.perverted]'s, the explorer replaces it).
    [ch_requeue] runs at every kernel exit and checkpoint where the
    running thread could give way (it runs in a thread and another is
    live), and after every successful lock; [ch_pick] at every scheduler
    pick.  Either may abort the run by raising out of [run_scheduler]. *)

val has_chooser : engine -> bool

val ready_view : engine -> int
(** Copy the ready threads, in creation order, into the engine's reusable
    array and return their count; {!ready_at}[ eng i] reads the [i]th. *)

val ready_at : engine -> int -> tcb

val touch : engine -> int -> unit
(** Report that the current step accessed the object with the given key
    (a {!Types.Touch} event).  No-op without subscribers. *)

val key_mutex : int -> int
val key_cond : int -> int
val key_thread : int -> int

(** {2:fault Fault injection}

    A {!Types.Decision} subscriber runs at every kernel exit and every
    checkpoint — the same decision points the explorer uses — with the
    current thread outside any half-finished kernel operation.  It
    perturbs the run through the primitives below; requested switches
    happen when the enclosing point examines the dispatcher flag. *)

val inject_preempt : engine -> unit
(** Force a context switch: requeue the running thread at the tail of the
    lowest priority bucket (as the perverted choosers do) and request
    dispatch.  Safe to call from the fault hook, outside the kernel. *)

val inject_wakeup : engine -> tcb -> unit
(** Spurious condition wakeup: if the thread is blocked on a condition
    variable, wake it with [Wake_interrupted] — exactly what a signal
    handler run does to a waiter, so a correct program's predicate loop
    absorbs it.  No-op otherwise. *)

val inject_signal : engine -> signo -> target:[ `Process | `Thread of tcb ] -> unit
(** Post a signal: [`Process] generates it at the simulated UNIX kernel
    (demultiplexed by the universal handler at the next poll); [`Thread]
    directs it through the thread-level delivery model. *)

val inject_cancel : engine -> tcb -> unit
(** Request cancellation of a thread (sends the internal SIGCANCEL), which
    lands at whatever interruptibility state the thread is in — Table 1's
    rows become reachable by timing. *)

val inject_clock_jump : engine -> ns:int -> unit
(** Advance the virtual clock by [ns] without running anybody: models NTP
    steps / suspend-resume racing timed waits.  Expired timers fire at the
    next signal poll. *)

val key_user : int -> int
(** Encode an object identity as a footprint key.  [key_user] is for
    program-level annotations ([Check.Explore.touch]): marking the shared
    data a critical section protects lets the explorer see dependencies
    through plain [ref]s that the library cannot observe. *)

val key_lock : int -> int
(** Footprint key for a user-level lock built on top of the library
    ([Psem.Rwlock]): participates in the sanitizer's lock-order graph and
    held-sets without being a kernel mutex. *)

val key_sem : int -> int
(** Footprint key for a counting semaphore ([Psem.Semaphore]).  The
    sanitizer applies relaxed ownership rules to this kind: a wait is an
    acquisition, a post by the holder a release, and a re-wait evicts the
    stale hold rather than reporting a self-cycle. *)

val key_io : int -> int
(** Footprint key for an I/O wait ({!io_wait_create}): the pipe, listener
    or socket transport it queues for. *)

val key_kind : int -> int
(** The kind byte of a footprint key (1 = mutex, 2 = cond, 3 = thread,
    4 = signal, 5 = user, 6 = lock, 7 = sem, 8 = io). *)

val key_to_string : int -> string

(** {1:san Sanitizer events}

    The probe events feeding [Sanitize.Monitor]: every synchronization
    action (acquire, release, signal→wake edge, create, join, exit,
    annotated data access) is delivered synchronously from the thread
    performing it.  They need no exploration hook, so a single production
    schedule can be checked for races and lock-order cycles. *)

val san_acquire : engine -> int -> name:string -> excl:bool -> unit
(** Emit a lock acquisition by the current thread ([excl:false] = shared
    mode, e.g. an rwlock read side).  For library-level locks ([Psem]);
    kernel mutexes emit their own events. *)

val san_release : engine -> int -> unit
val san_publish : engine -> int -> unit
val san_merge : engine -> int -> unit
val san_join : engine -> int -> unit

val touch_rw : engine -> int -> write:bool -> unit
(** An annotated shared-data access ({!Types.San_access}): one event that
    is both a footprint key for the explorer and a read or write for the
    race detector ([Check.Explore.touch_read]/[touch_write]). *)

(** {1 Statistics} *)

type stats = {
  virtual_ns : int;  (** total virtual time consumed *)
  switches : int;  (** thread context switches *)
  kernel_traps : int;  (** simulated UNIX kernel entries *)
  trap_detail : (string * int) list;
  sigsetmask_calls : int;
  signals_posted : int;
  signals_delivered_unix : int;
  signals_lost : int;
  thread_handler_runs : int;
  threads_created : int;
  heap_allocations : int;
  faults_injected : int;
      (** faults applied by the injection primitives plus injected trap
          failures (see {!section-fault}) *)
  timers_armed : int;
      (** kernel timers still armed at the moment of the snapshot — a
          completed run should show only the time-slice interval timer
          (round-robin policy) or zero; anything else is a leaked one-shot *)
}

val stats : engine -> stats
val reset_stats : engine -> unit
val pp_stats : Format.formatter -> stats -> unit

val dispatch_count : engine -> int
(** Monotone count of thread resumptions (not reset by [reset_stats]);
    the denominator of the scheduler-scaling microbenchmark. *)
