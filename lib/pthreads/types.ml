(** Core data structures of the Pthreads library.

    Everything that is mutually recursive lives here: the engine (one
    simulated process running the library), thread control blocks, mutexes,
    condition variables and fake-call frames.  Operation modules ([Kernel],
    [Engine], [Mutex], [Cond], ...) act on these records; user code goes
    through the [Pthread] facade.

    Threads are OCaml 5 fibers: a TCB holds either a not-yet-started body or
    a one-shot continuation saved at its last suspension point.  The single
    effect {!Suspend} transfers control from a thread to the scheduler
    loop. *)

open Vm

type signo = Sigset.signo

(** Scheduling policy for the whole simulated process (as in the paper);
    individual threads may opt out of time slicing via
    {!per_thread_sched}. *)
type policy =
  | Fifo  (** SCHED_FIFO: run until block/yield/preemption *)
  | Round_robin of int  (** SCHED_RR with the given time slice (ns) *)

(** The paper's debugging policies ("Perverted Scheduling: Testing and
    Debugging"). *)
type perverted =
  | No_perversion
  | Mutex_switch
      (** forced context switch on each successful mutex lock *)
  | Rr_ordered_switch
      (** on leaving the Pthreads kernel, reposition the current thread at
          the tail of the lowest priority queue *)
  | Random_switch
      (** on leaving the kernel, flip a coin; on heads, reposition at the
          tail of the lowest queue and pick the next thread at random *)

(** Per-thread scheduling policy override (POSIX [sched_setscheduler]-
    style): an [Sched_fifo] thread is exempt from the process's round-robin
    time slicing; an [Sched_rr] thread rotates (the default when the
    process policy is [Round_robin]). *)
type per_thread_sched = Sched_fifo | Sched_rr

type cancel_state = Cancel_enabled | Cancel_disabled

type cancel_type =
  | Cancel_controlled  (** acted upon at interruption points *)
  | Cancel_asynchronous  (** acted upon immediately *)

(** How a thread ended. *)
type exit_status =
  | Exited of int  (** returned or called [Pthread.exit] *)
  | Canceled
  | Failed of exn  (** an uncaught OCaml exception escaped the body *)

(** Why a suspended thread was resumed. *)
type wake =
  | Wake_normal
  | Wake_interrupted  (** woken to run a signal handler / cancellation *)
  | Wake_timeout  (** a timed wait expired *)

type mutex_protocol =
  | No_protocol
  | Inherit_protocol  (** priority inheritance (Sha/Rajkumar/Lehoczky) *)
  | Ceiling_protocol  (** priority ceiling emulation via SRP (Baker) *)

(** What a ceiling-protocol unlock restores — the two columns of the
    paper's Table 4.  [Stack_pop] is the efficient SRP implementation (pops
    the saved level; diverges when protocols are mixed); [Recompute]
    performs the inheritance-style linear search, which "could be used for
    the ceiling protocol as well if the protocols were mixed". *)
type ceiling_unlock_mode = Stack_pop | Recompute

type thread_state =
  | Ready
  | Running
  | Blocked of block_reason
  | Terminated

and block_reason =
  | On_mutex of mutex
  | On_cond of cond
  | On_join of tcb
  | On_sigwait of Sigset.t
  | On_sleep
  | On_start  (** created with deferred activation, not yet activated *)
  | On_suspend  (** explicitly suspended (pthread_suspend_np) *)
  | On_shared of string
      (** waiting on a cross-process (shared-memory) synchronization
          object; woken by another process's library *)
  | On_await
      (** awaiting a cross-shard task ([Shard.await]); woken by the
          task's completion, directly or through the home shard's inbox *)
  | On_io of io_wait
      (** waiting for I/O readiness ([Net]: pipe data, a pending
          connection, a ready socket); an interruption point *)

and tcb = {
  tid : int;
  tname : string;
  mutable state : thread_state;
  mutable detached : bool;
  mutable base_prio : int;  (** the priority the program asked for *)
  mutable prio : int;  (** effective priority after protocol boosts *)
  mutable boost_stack : int list;  (** ceiling protocol: saved levels *)
  mutable sigmask : Sigset.t;
  mutable thr_pending : pending_sig list;
      (** signals pended on the thread; newest first, delivered oldest
          first *)
  mutable sigwait_set : Sigset.t;  (** non-empty only while in [sigwait] *)
  mutable sigwait_result : signo option;
  mutable fake_frames : fake_frame list;  (** newest first *)
  mutable errno : int;
  mutable cleanup : (unit -> unit) list;  (** cleanup-handler stack *)
  mutable tsd : univ option array;
      (** lazily allocated: [[||]] until the thread first sets a key — most
          threads never touch TSD, and at 10^6 threads an eager
          [max_tsd_keys]-slot array per TCB dominates the memory budget *)
  mutable cancel_state : cancel_state;
  mutable cancel_type : cancel_type;
  mutable cancel_pending : bool;
  mutable retval : exit_status option;
  joiners : pq;  (** threads blocked joining this one *)
  mutable cont : cont_state;
  mutable pending_wake : wake;
  mutable owned : mutex;
      (** mutexes currently held (for inheritance), newest first: the head
          of an intrusive list through [m_held_next]; [nil_mutex] when none.
          Intrusive so that a lock or unlock conses nothing. *)
  mutable sched_override : per_thread_sched option;
      (** POSIX per-thread policy: overrides the process policy's
          time-slicing behaviour for this thread *)
  mutable suspended : bool;
      (** suspension requested; a blocked thread parks in [On_suspend]
          instead of becoming ready when its wait completes *)
  mutable wait_deadline : int;
      (** absolute ns of the current timed wait; [no_deadline] ([max_int])
          when none.  A plain int, not an option: every timed wait would
          otherwise box a fresh [Some], and the sleep index compares this
          field on its hot path. *)
  mutable n_switches_in : int;
  (* Intrusive queue links.  A thread occupies at most one priority queue
     at any time (the ready queue XOR one wait queue), so a single pair of
     links plus the owning queue suffices for O(1) push/pop/remove.  The
     links are nil-sentinel ([nil_tcb]/[nil_pq]), not [option]: a ready
     queue push/pop pair per dispatch would otherwise allocate [Some]
     boxes that live a full round-robin round at high thread counts —
     long enough to be promoted out of the minor heap, turning every
     dispatch into major-GC garbage. *)
  mutable q_next : tcb;
  mutable q_prev : tcb;
  mutable q_in : pq;  (** the queue currently holding this thread *)
  mutable q_level : int;
      (** bucket index within [q_in]; usually [prio], but the perverted
          policies park threads in the lowest bucket regardless *)
  (* Intrusive links of the engine's all-threads list (creation order). *)
  mutable at_next : tcb option;
  mutable at_prev : tcb option;
}

(** A priority-bucketed FIFO multiqueue: one intrusive doubly-linked deque
    per priority level plus a bitmap of non-empty levels.  Used for the
    dispatcher's ready structure and for every waiter queue (mutex, cond,
    join), giving O(1) push/pop/remove and O(1) highest-priority lookup
    (highest-set-bit over [n_prios] bits).  Operations live in
    [Wait_queue]; the dispatcher calls them on [engine.ready]. *)
and pq = {
  mutable pq_levels : pq_level array;
      (** length [n_prios], index = priority; lazily allocated — [[||]]
          until the first push, and then each level is the shared
          [nil_level] until something is pushed at that priority.  Every
          TCB owns a [joiners] queue and every cond a waiter queue; most
          only ever see one or two priorities, so 32 eager levels were most
          of their footprint. *)
  mutable pq_bits : int;  (** bit [p] set iff level [p] is non-empty *)
  mutable pq_size : int;  (** maintained element count *)
}

and pq_level = {
  mutable lv_head : tcb;  (** runs/wakes first; [nil_tcb] when empty *)
  mutable lv_tail : tcb;
  mutable lv_len : int;
}

and cont_state =
  | Not_started of (unit -> int)
  | Saved of (wake, unit) Effect.Deep.continuation
  | No_cont  (** running right now, or terminated *)

and mutex = {
  m_id : int;
  m_name : string;
  m_protocol : mutex_protocol;
  mutable m_ceiling : int;
  mutable m_locked : bool;
  mutable m_owner : tcb;  (** [nil_tcb] while unlocked *)
  m_waiters : pq;  (** priority order, FIFO within a level *)
  mutable m_locks : int;  (** statistics *)
  mutable m_contended : int;
  mutable m_held_next : mutex;  (** the owner's [owned] list links *)
  mutable m_held_prev : mutex;
  m_blocked : thread_state;  (** [Blocked (On_mutex self)], built once *)
  mutable m_census_next : mutex;
      (** the engine's census (creation order); [nil_mutex]-terminated *)
}

and cond = {
  c_id : int;
  c_name : string;
  c_waiters : pq;  (** priority order, FIFO within a level *)
  mutable c_mutex : mutex;  (** bound while waiters exist; else [nil_mutex] *)
  c_blocked : thread_state;  (** [Blocked (On_cond self)], built once *)
  mutable c_census_next : cond;  (** the engine's census, creation order *)
}

(** An I/O wait: the waiter queue of one [Net] object (a pipe direction, a
    listener, the socket transport), footprint key [Engine.key_io io_id]. *)
and io_wait = {
  io_id : int;
  io_name : string;
  io_waiters : pq;  (** priority order, FIFO within a level *)
  io_blocked : thread_state;  (** [Blocked (On_io self)], built once *)
}

and fake_frame =
  | Fake_handler of {
      fh_signo : signo;
      fh_code : int;
      fh_mask : Sigset.t;  (** extra signals masked while the handler runs *)
      fh_fn : signo:int -> code:int -> unit;
    }
  | Fake_exit  (** a fake call to [pthread_exit] (cancellation) *)

and pending_sig = { p_signo : signo; p_code : int; p_origin : Unix_kernel.origin }

and univ = exn  (** universal type for thread-specific data values *)

(** Sentinels terminating the intrusive links.  [nil_pq] doubles as "not
    queued" for [tcb.q_in], [nil_tcb] as "no owner" for [m_owner],
    [nil_mutex] as "none held" and "unbound"; [nil_level] is every
    never-used priority level of a wait queue.  All are compared with
    physical equality only and never mutated. *)
let nil_pq = { pq_levels = [||]; pq_bits = 0; pq_size = 0 }

let rec nil_tcb =
  {
    tid = -1;
    tname = "<nil>";
    state = Terminated;
    detached = false;
    base_prio = 0;
    prio = 0;
    boost_stack = [];
    sigmask = Sigset.empty;
    thr_pending = [];
    sigwait_set = Sigset.empty;
    sigwait_result = None;
    fake_frames = [];
    errno = 0;
    cleanup = [];
    tsd = [||];
    cancel_state = Cancel_enabled;
    cancel_type = Cancel_controlled;
    cancel_pending = false;
    retval = None;
    joiners = nil_pq;
    cont = No_cont;
    pending_wake = Wake_normal;
    owned = nil_mutex;
    sched_override = None;
    suspended = false;
    wait_deadline = max_int;
    n_switches_in = 0;
    q_next = nil_tcb;
    q_prev = nil_tcb;
    q_in = nil_pq;
    q_level = 0;
    at_next = None;
    at_prev = None;
  }

and nil_mutex =
  {
    m_id = 0;
    m_name = "<nil>";
    m_protocol = No_protocol;
    m_ceiling = 0;
    m_locked = false;
    m_owner = nil_tcb;
    m_waiters = nil_pq;
    m_locks = 0;
    m_contended = 0;
    m_held_next = nil_mutex;
    m_held_prev = nil_mutex;
    m_blocked = Blocked (On_mutex nil_mutex);
    m_census_next = nil_mutex;
  }

let rec nil_cond =
  {
    c_id = 0;
    c_name = "<nil>";
    c_waiters = nil_pq;
    c_mutex = nil_mutex;
    c_blocked = Blocked (On_cond nil_cond);
    c_census_next = nil_cond;
  }

let nil_level = { lv_head = nil_tcb; lv_tail = nil_tcb; lv_len = 0 }

(** The owner of [m], boxed for the cold readers (debugger, checkers). *)
let owner m = if m.m_owner == nil_tcb then None else Some m.m_owner

(** The mutexes [t] holds, newest first. *)
let owned_list t =
  let rec go m acc = if m == nil_mutex then List.rev acc else go m.m_held_next (m :: acc) in
  go t.owned []

(** Process-wide signal action table (the thread-level [sigaction]). *)
type action =
  | Sig_default
  | Sig_ignore
  | Sig_handler of { h_mask : Sigset.t; h_fn : signo:int -> code:int -> unit }

type config = {
  profile : Cost_model.profile;
  policy : policy;
  perverted : perverted;
  seed : int;
  use_pool : bool;
  pool_prealloc : int;
  trace_enabled : bool;
  main_prio : int;
  ceiling_mode : ceiling_unlock_mode;
}

(** Why the whole simulated process stopped before all threads finished. *)
type stop_reason =
  | Killed_by_signal of signo  (** default action of an unhandled signal *)
  | Deadlock of string

(** All live (or terminated-but-unjoined) threads: an intrusive
    doubly-linked list in creation order — the order the paper's
    recipient-resolution rule 5 walks — plus a tid-indexed dynamic array so
    lookups by id ([find_thread], the debugger, signal targeting) are a
    bounds check and a load, with no hashing.  Freed tids are recycled
    (LIFO), which keeps the array dense under create/reap churn. *)
type thread_table = {
  mutable tt_head : tcb option;
  mutable tt_tail : tcb option;
  mutable tt_count : int;
  mutable tt_slots : tcb option array;  (** index = tid; grown by doubling *)
}

(** The engine probe: the one stream through which the engine makes its
    decisions visible (the paper's "context switches could become visible
    to the user").  Every observer subscribes to it — the debugger and
    validator watch switches, the schedule explorer collects footprints,
    the fault injector acts at decision points, the concurrency sanitizer
    ([lib/sanitize]) consumes the synchronization events.  The current
    thread and virtual time are implicit: every event is emitted
    synchronously, from the thread it describes or (for [Switch_in]) from
    the scheduler loop. *)
type probe =
  | Decision
      (** a decision point: every kernel exit and every checkpoint taken
          outside the kernel, in a thread.  The explorer may switch here,
          and the fault injector perturbs the run here: it must not
          dispatch itself, but may request a switch through
          [dispatcher_flag], which the enclosing point performs. *)
  | Switch_in of tcb
      (** a dispatch, fired {e before} it commits: the thread is still
          [Ready] and [current] still names the outgoing thread, so a
          subscriber can veto the switch by raising *)
  | Touch of int
      (** the current step accessed the synchronization object with this
          footprint key (see [Engine.key_mutex] etc.): the explorer's
          dependence relation for partial-order reduction *)
  | San_access of { a_key : int; a_write : bool }
      (** annotated shared-data access (footprint key, see
          [Engine.key_user]); also part of the step's footprint *)
  | San_acquire of { q_key : int; q_name : string; q_excl : bool }
      (** a lock-like object was acquired; [q_excl = false] for shared
          (rwlock read) mode.  Emitted after the acquisition succeeds. *)
  | San_release of { r_key : int }
      (** a lock-like object was released by the current thread *)
  | San_publish of { p_key : int }
      (** release-side of a non-lock happens-before edge (cond signal /
          broadcast): the current thread's clock becomes visible at key *)
  | San_merge of { g_key : int }
      (** acquire-side of that edge: a woken waiter joins the clock
          published at key *)
  | San_create of { c_child : int }
      (** the current thread created thread [c_child] *)
  | San_join of { j_target : int }
      (** the current thread joined terminated thread [j_target] *)
  | San_exit  (** the current thread is terminating *)

(** Open extension point for engine-scoped state owned by higher layers
    (e.g. [Net]'s virtual loopback port registry) — keeps [types] free of
    upward dependencies. *)
type ext = ..

type ext += Ext_none

(** Where the engine consults its chooser (see {!chooser}). *)
type choice_point = At_kernel_exit | At_checkpoint | At_mutex_acquired

type engine = {
  vm : Unix_kernel.t;
      (** The kernel state machine — always [backend.kernel]; kept as a
          direct field because it is on every fast path. *)
  backend : Backend.t;
      (** Where events come from: the deterministic virtual backend or the
          real Unix event loop.  See [Vm.Backend]. *)
  heap : Heap.t;
  trace : Trace.t;
  cfg : config;
  rng : Rng.t;
  mutable kernel_flag : bool;
  mutable dispatcher_flag : bool;
  mutable deferred : pending_sig list;
      (** caught while in the kernel; newest first, reversed when drained *)
  mutable current : tcb;
  ready : pq;  (** the dispatcher's ready structure; head of a level runs next *)
  threads : thread_table;
  sleeps : tcb Timer_heap.t;
      (** timed waiters ([Cond] deadlines, [Pthread.delay]) by deadline,
          with lazy deletion: an entry is dead when its thread's
          [wait_deadline] no longer matches (woken early, or already woken
          by its own alarm).  Replaces the all-threads scan that made every
          alarm and every idle transition O(live threads). *)
  mutable next_tid : int;
  mutable free_tids : int list;
      (** tids of reaped threads, reused LIFO before minting new ones *)
  mutable next_obj : int;
  actions : action array;
  mutable proc_pending : pending_sig list;
      (** rule 6: no eligible thread; newest first, reversed when drained *)
  mutable live_count : int;
  mutable n_switches : int;
  mutable n_dispatches : int;  (** monotone count of thread resumptions *)
  mutable n_created : int;
  mutable n_thread_signals : int;
  tsd_destructors : (univ -> unit) option array;
  mutable tsd_next : int;
  mutable stop_reason : stop_reason option;
  mutable in_fiber : bool;  (** false while the scheduler loop itself runs *)
  mutable probes : (probe -> unit) list;
      (** the probe's subscribers, in registration order (see
          [Engine.subscribe]); [[]] on every run nobody observes *)
  mutable chooser : chooser option;
      (** the one scheduling decision slot: a perverted policy installed
          by [Engine.make], or the explorer's ([Engine.set_chooser]);
          [None] on every run that schedules by priority alone *)
  mutable ready_view : tcb array;
      (** reusable buffer behind [Engine.ready_view] *)
  mutable idle_deadline : int option;
      (** the last deadline the idle loop passed to [Backend.wait], kept
          boxed so the loop, which spins inside the unix polling window,
          allocates only when the deadline changes *)
  mutable census_mutexes : mutex;
      (** oldest mutex of the invariant checker's census (intrusive
          through [m_census_next], creation order; [nil_mutex] when
          empty).  Append-only: [Net] objects are I/O waits, not census
          members, so a long-lived server's census does not grow with its
          connections. *)
  mutable census_mutexes_last : mutex;
  mutable census_conds : cond;  (** ditto for condition variables *)
  mutable census_conds_last : cond;
  mutable n_faults_injected : int;
      (** count of faults actually applied by the injection primitives *)
  mutable net_state : ext;
      (** [Net]'s per-engine state (virtual loopback registry, socket
          I/O wait), installed lazily on first use; [Ext_none] otherwise. *)
  mutable shard_state : ext;
      (** [Shard]'s per-engine state in parallel mode (the shard this
          engine pumps and its pool); [Ext_none] in single-domain mode. *)
  fiber_handler : (unit, unit) Effect.Deep.handler;
      (** the [Suspend] handler every thread's fiber runs under, built once
          per engine (it stores the continuation on [current]) *)
}

(** Who runs next, decided in one place (the perverted policies, the
    model checker).  [ch_requeue] names the bucket to requeue the running
    thread at, or a negative number to keep it running; [ch_pick] returns
    the next thread, left in [ready] ([nil_tcb] when it is empty).  See
    [Engine.set_chooser]. *)
and chooser = {
  ch_requeue : choice_point -> tcb -> int;
  ch_pick : engine -> tcb;
}

(** The single scheduling effect: performed by a thread to return control to
    the scheduler loop.  The loop answers with the reason the thread was
    woken. *)
type _ Effect.t += Suspend : wake Effect.t

exception Thread_exit_exn of exit_status
(** Internal unwinding exception for [pthread_exit] and cancellation. *)

exception Process_stopped of stop_reason
(** Raised out of [Pthread.run] when the process died (deadlock, or the
    default action of a signal). *)

exception Longjmp_exn of int * int
(** [Longjmp_exn (jmp_buf_id, value)]; see [Jmp]. *)

exception Error of Errno.t * string
(** The one structured error of the OCaml-facing API: raised by [Mutex],
    [Cond] and [Pthread] on misuse (relock, unlock by non-owner, join with
    self, ...) and by fault-injected call failures (e.g. [EINTR] from
    [Signal_api.blocking_read]).  [Flat] converts it back to the
    language-independent integer status via [Errno.to_int]. *)

let min_prio = 0
let max_prio = 31
let n_prios = max_prio + 1
let default_prio = 8
let max_tsd_keys = 64
let no_deadline = max_int

let pp_exit_status ppf = function
  | Exited v -> Format.fprintf ppf "exited(%d)" v
  | Canceled -> Format.pp_print_string ppf "canceled"
  | Failed e -> Format.fprintf ppf "failed(%s)" (Printexc.to_string e)

let pp_stop_reason ppf = function
  | Killed_by_signal s ->
      Format.fprintf ppf "killed by default action of %s" (Sigset.name s)
  | Deadlock msg -> Format.fprintf ppf "deadlock: %s" msg

let state_name = function
  | Ready -> "ready"
  | Running -> "running"
  | Terminated -> "terminated"
  | Blocked (On_mutex m) -> "blocked-on-mutex " ^ m.m_name
  | Blocked (On_cond c) -> "blocked-on-cond " ^ c.c_name
  | Blocked (On_join t) -> "blocked-joining " ^ t.tname
  | Blocked (On_sigwait _) -> "blocked-in-sigwait"
  | Blocked On_sleep -> "sleeping"
  | Blocked On_start -> "not-yet-activated"
  | Blocked On_suspend -> "suspended"
  | Blocked (On_shared name) -> "blocked-on-shared " ^ name
  | Blocked On_await -> "awaiting-task"
  | Blocked (On_io w) -> "blocked-on-io " ^ w.io_name
