(** The Pthreads library facade: thread management and the simulated
    process.

    A {e proc} is one simulated UNIX process running the library — the
    virtual machine, the Pthreads kernel and all threads.  [run] builds one,
    executes its main thread (tid 0) and every thread it spawns to
    completion under the chosen scheduling policy, and returns the main
    thread's exit status together with the run's statistics:

    {[
      let status, stats =
        Pthread.run (fun proc ->
            let t = Pthread.create proc (fun () -> 41) in
            match Pthread.join proc t with
            | Types.Exited v -> v + 1
            | _ -> 0)
      in
      ...
    ]}

    Synchronization lives in the sibling modules [Mutex], [Cond],
    [Signal_api], [Cancel], [Tsd], [Cleanup] and [Jmp], which all take the
    same [proc] as first argument.

    Deviations from POSIX, forced by the simulation substrate, are listed in
    DESIGN.md; the main ones: the process ends when {e all} threads have
    terminated (a main thread that returns early behaves as if it called
    [pthread_exit]), and asynchronous events are noticed at checkpoints
    (every API call and every slice of {!busy}). *)

open Types

type proc = engine
type t = int
(** A thread identifier. *)

(** {1 Running a simulated process} *)

val run :
  ?backend:Vm.Backend.t ->
  ?profile:Vm.Cost_model.profile ->
  ?policy:policy ->
  ?perverted:perverted ->
  ?seed:int ->
  ?use_pool:bool ->
  ?trace:bool ->
  ?main_prio:int ->
  ?ceiling_mode:ceiling_unlock_mode ->
  (proc -> int) ->
  exit_status option * Engine.stats
(** Run a simulated process whose main thread executes the given function.
    Returns main's exit status ([None] if another thread joined-and-reaped
    main) and the statistics.  [backend] is as for {!make_proc}; a given
    backend is shut down when the run ends, also on an exception.
    @raise Types.Process_stopped on deadlock or a fatal signal. *)

val make_proc :
  ?clock:Vm.Clock.t ->
  ?backend:Vm.Backend.t ->
  ?profile:Vm.Cost_model.profile ->
  ?policy:policy ->
  ?perverted:perverted ->
  ?seed:int ->
  ?use_pool:bool ->
  ?trace:bool ->
  ?main_prio:int ->
  ?ceiling_mode:ceiling_unlock_mode ->
  (proc -> int) ->
  proc
(** Build the process without running it (for callers that need the handle
    before/after the run, e.g. to read the trace).  [backend] selects the
    event source (default: deterministic virtual kernel); when given,
    [clock] is ignored and [profile] defaults to the backend kernel's
    profile. *)

val start : proc -> unit
(** Run a process built with {!make_proc} to completion. *)

val main_status : proc -> exit_status option
(** The main thread's (tid 0) exit status after a run; [None] if it has
    not terminated or another thread joined-and-reaped it. *)

(** {1 Thread management} *)

val create : proc -> ?attr:Attr.t -> (unit -> int) -> t
(** Create a thread; it becomes ready immediately (and preempts the caller
    if its priority is higher), unless the attribute asks for deferred
    activation. *)

val create_unit : proc -> ?attr:Attr.t -> (unit -> unit) -> t
(** Convenience wrapper for bodies without a return value. *)

val activate : proc -> t -> unit
(** Activate a thread created with [Attr.with_deferred true]; allocates its
    resources now.  No-op if already active. *)

val join : proc -> t -> exit_status
(** Wait for the thread to terminate and reap it.  Joining a lazily created
    thread activates it first (it is "needed" now).  An interruption point.
    @raise Types.Error with [Errno.EDEADLK] for self-join, [Errno.EINVAL]
    for a detached target, [Errno.ESRCH] for an unknown (already reaped)
    thread. *)

val detach : proc -> t -> unit
(** The thread's resources are reclaimed on termination; it can no longer
    be joined.  Detaching an already terminated thread reaps it now. *)

val exit : proc -> int -> 'a
(** Terminate the calling thread; cleanup handlers and TSD destructors
    run. *)

val suspend : proc -> t -> unit
(** Suspend a thread until {!resume} (the FSU library's
    [pthread_suspend_np]).  A running or ready target stops at once;
    a blocked target parks the moment its wait completes (preserving the
    wait's outcome).  Signals and cancellation pend across a suspension
    like across a mutex wait.  Self-suspension blocks immediately.
    @raise Types.Error with [Errno.ESRCH] for an unknown thread id. *)

val resume : proc -> t -> unit
(** Undo {!suspend}; no-op for threads that are not suspended. *)

val is_suspended : proc -> t -> bool

val self : proc -> t
val equal : t -> t -> bool
val name_of : proc -> t -> string option

val state_of : proc -> t -> string option
(** Human-readable state, for debugging and tests. *)

type once_control

val once_init : unit -> once_control

val once : proc -> once_control -> (unit -> unit) -> unit
(** Run the function the first time this control is passed; subsequent
    calls are no-ops. *)

(** {1 Scheduling} *)

val yield : proc -> unit
(** Give up the processor to the next thread of equal priority. *)

val set_priority : proc -> t -> int -> unit
(** Change a thread's base priority (and its effective priority unless a
    protocol boost holds it higher). *)

val get_priority : proc -> t -> int
(** Effective (possibly boosted) priority. *)

val get_base_priority : proc -> t -> int

val delay : proc -> ns:int -> unit
(** Sleep for the given virtual time (an interruption point); implemented
    with a timer and the SIGALRM delivery rules. *)

val busy : proc -> ns:int -> unit
(** Simulated computation: advances the virtual clock in slices with a
    checkpoint per slice, so preemption, time-slicing and signal delivery
    occur mid-computation. *)

val checkpoint : proc -> unit
(** An explicit preemption point. *)

(** {1 Introspection} *)

val now : proc -> int
(** Virtual time (ns) of the process. *)

val stats : proc -> Engine.stats
val reset_stats : proc -> unit

val trace_events : proc -> Vm.Trace.event list
val gantt : proc -> bucket_ns:int -> string
(** ASCII Gantt chart of the trace (requires [~trace:true]). *)

val thread_count : proc -> int
(** Threads not yet terminated. *)
