(** A uniprocessor hosting several simulated processes.

    The paper's first future-work item is "shared mutexes and condition
    variables which can be used across processes ... by allocating a mutex
    object in a shared data space".  That requires more than one process to
    exist; this module provides the machine: every process gets its own
    engine (threads, Pthreads kernel, UNIX state) but all share a single
    virtual clock, and a machine-level scheduler interleaves them.

    Scheduling between processes is blocking-boundary multiplexing, as on a
    time-shared uniprocessor whose processes block often: a process runs
    until none of its threads is ready; the machine then runs another
    process, or advances the shared clock to the earliest pending event.
    (There is no inter-process preemption — a compute-bound process starves
    the others, as a high-priority CPU hog does under UNIX.)

    The cross-process synchronization objects live in [Shared]. *)

type t

val create : ?profile:Vm.Cost_model.profile -> unit -> t

val clock : t -> Vm.Clock.t

(** What became of one process. *)
type proc_result =
  | Completed of Types.exit_status option
      (** all threads finished; payload: main's status *)
  | Stopped of Types.stop_reason

val spawn :
  t ->
  ?policy:Types.policy ->
  ?perverted:Types.perverted ->
  ?seed:int ->
  ?main_prio:int ->
  name:string ->
  (Pthread.proc -> int) ->
  Pthread.proc
(** Add a process to the machine (before {!run}).  Each process has its own
    scheduling policy, seed and priorities.  The returned handle can be
    used to pre-build shared objects or inspect the process afterwards. *)

exception Machine_deadlock of string
(** No process can run, no event is pending: the processes are deadlocked
    against each other (e.g. over a [Shared] mutex). *)

val run : t -> (string * proc_result) list
(** Run every spawned process to completion, interleaved on the shared
    clock.  Results are in spawn order (children included, after their
    static siblings).
    @raise Machine_deadlock on a cross-process deadlock. *)

(** {1 Process control}

    The paper: "the support is currently being extended to include process
    control".  Processes can be created at runtime from a running thread,
    awaited, and signalled. *)

type child

val spawn_child :
  t ->
  ?policy:Types.policy ->
  ?perverted:Types.perverted ->
  ?seed:int ->
  ?main_prio:int ->
  Pthread.proc ->
  name:string ->
  (Pthread.proc -> int) ->
  child
(** Create a new process at runtime (a [fork]+[exec] analogue); it starts
    running at the machine's next scheduling round. *)

val wait_child : t -> Pthread.proc -> child -> proc_result
(** Block the calling {e thread} until the child process has terminated
    ([waitpid]).  Cancellation is tested on entry and at each wakeup; a
    request arriving mid-wait pends until the child exits. *)

val kill_process : t -> Pthread.proc -> Pthread.proc -> Types.signo -> unit
(** [kill_process m sender target signo]: a [kill(2)] across processes —
    trap charged to the sender, signal posted to the target's kernel and
    demultiplexed by the target's library at its next checkpoint. *)
