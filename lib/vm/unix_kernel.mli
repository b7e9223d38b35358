(** The simulated UNIX (SunOS 4.1 / 4.3 BSD) kernel.

    This is the substrate the Pthreads library sits on.  It models exactly
    the services the paper's implementation uses — "about 20 UNIX services
    most of which are used for initialization" — plus the ones on its hot
    paths:

    - kernel traps with their round-trip cost ({!trap}, {!getpid});
    - process-level signal state: one disposition table, one process signal
      mask, BSD-style (non-queuing) pending signals, delivery with automatic
      masking and [sigreturn] ({!sigaction}, {!sigsetmask}, {!post_signal},
      {!deliver_pending});
    - interval timers and asynchronous I/O completions that post signals
      ({!arm_timer}, {!submit_io}, {!check_events});
    - [sbrk] for heap growth;
    - the SPARC register-window traps ({!flush_windows},
      {!window_underflow}).

    Everything is charged to a virtual {!Clock} according to a
    {!Cost_model.profile}, and every kernel entry is counted, so benchmarks
    can report both virtual time and the paper's "few operating system
    calls" claim quantitatively. *)

type t

(** Why a signal was generated — the delivery model's rules 1-4 need to know
    the cause of a signal to pick the recipient thread. *)
type origin =
  | External  (** sent from outside the process *)
  | Directed of int  (** [pthread_kill]: target thread id *)
  | Sync of int  (** synchronously caused by thread id (e.g. a fault) *)
  | Timer of int  (** expiry of a timer armed by thread id *)
  | Slice  (** time-slice expiration (round-robin scheduling) *)
  | Io of int  (** completion of I/O requested by thread id *)

type handler = signo:int -> code:int -> origin:origin -> unit
(** A UNIX-level signal handler upcall.  It runs with [mask] (plus the
    delivered signal) blocked; the mask in force before delivery is restored
    when the handler returns ([sigreturn]). *)

type disposition = Default | Ignore | Catch of { mask : Sigset.t; fn : handler }

exception Process_killed of Sigset.signo
(** Raised when a signal whose disposition is [Default] (and whose default
    action is termination) is delivered. *)

val create : ?clock:Clock.t -> Cost_model.profile -> t
(** [clock] lets several simulated kernels (e.g. the per-process states of
    the {!Unix_process} baseline) share one time line; a fresh clock is
    created by default. *)

val profile : t -> Cost_model.profile
val clock : t -> Clock.t
val now : t -> int
(** Current virtual time, in nanoseconds. *)

val advance : t -> int -> unit
(** Advance the virtual clock (models computation outside the kernel). *)

val insns : t -> int -> unit
(** [insns t n] charges [n] straight-line instructions to the clock. *)

(** {1 Kernel entry} *)

type syscall =
  | Getpid
  | Sbrk
  | Sigaction
  | Sigsetmask
  | Kill
  | Sigpause
  | Setitimer
  | Read
  | Aioread
  | Write
      (** The kernel calls the library and its baselines make; {!trap_counts}
          and the fault hook name them in lower case (["sigsetmask"]). *)

val trap : t -> syscall -> unit
(** Enter the kernel: charge the round-trip trap cost and count the call.
    The caller then runs the call's effect inline.  May raise
    {!Trap_fault} when a fault hook is installed, before the effect. *)

exception Trap_fault of string * int
(** [Trap_fault (trap_name, errno)]: the installed fault hook decided this
    kernel call fails.  The trap cost is still charged; the operation never
    runs. *)

val set_trap_fault_hook : t -> (string -> int option) option -> unit
(** Install (or clear) the syscall fault hook.  Consulted on every {!trap}
    with the trap's name; returning [Some errno] makes the call raise
    {!Trap_fault}.  Installed by the fault-injection layer, which arms
    specific names (e.g. ["read"]) at specific points. *)

val trap_faults : t -> int
(** Number of injected trap failures so far. *)

val getpid : t -> int

val sbrk : t -> int -> unit
(** Grow the heap by the given number of bytes. *)

val flush_windows : t -> unit
(** The [ST_FLUSH_WINDOWS] trap a SPARC context switch starts with. *)

val window_underflow : t -> unit
(** The window-underflow trap taken by [restore] when switching in. *)

(** {1 Signals} *)

val sigaction : t -> Sigset.signo -> disposition -> unit
(** Install a disposition (a kernel call). *)

val sigsetmask : t -> Sigset.t -> Sigset.t
(** Replace the process signal mask; returns the previous mask.  A kernel
    call — the paper stresses these must be minimized ("two calls to
    sigsetmask for each signal received"), so they are counted separately;
    see {!sigsetmask_count}. *)

val proc_mask : t -> Sigset.t

val set_signal_wakes : t -> (Sigset.signo -> bool) -> unit
(** Install the library's answer to "could delivering this signal now
    make a thread runnable?".  The library above the kernel knows its
    handlers and its [sigwait]ers; the kernel does not.  Default: always
    [true]. *)

val signal_wakes : t -> Sigset.signo -> bool
(** Ask the installed answer.  An idle backend asks it, for each signal
    it forwards, only when it has no deadline and no filled slot: a signal
    that wakes nobody cannot end a deadlock. *)

val post_signal : t -> Sigset.signo -> ?code:int -> origin:origin -> unit -> unit
(** Generate a signal for the process.  BSD semantics: if the same signal is
    already pending it is lost (counted; see {!signals_lost}). *)

val kill : t -> Sigset.signo -> ?code:int -> origin:origin -> unit -> unit
(** [post_signal] through a kernel trap (a [kill(2)] self-signal). *)

val pending : t -> Sigset.t
(** Signals currently pending at the process level. *)

val deliver_pending : t -> bool
(** Deliver at most one pending, unmasked signal: charge delivery cost, mask
    per the disposition, upcall the handler, then charge [sigreturn] and
    restore the mask when it returns.  Returns [true] if a signal was
    delivered.  [Ignore]d signals are discarded silently (without delivery
    cost).  @raise Process_killed on a [Default] disposition. *)

val has_deliverable : t -> bool
(** Would {!deliver_pending} deliver something right now? *)

(** {1 Timers and asynchronous I/O} *)

type timer
(** An armed interval timer: the handle {!disarm_timer} takes. *)

val arm_timer :
  t -> after_ns:int -> interval_ns:int -> signo:Sigset.signo -> origin:origin -> timer
(** Arm a timer firing at [now + after_ns] and then every [interval_ns]
    (one-shot if [interval_ns = 0]); posts [signo] with [origin] on expiry.
    A kernel call ([setitimer]). *)

val disarm_timer : t -> timer -> unit
(** Cancel the timer (no-op if it already fired or was already disarmed).
    A kernel call ([setitimer]). *)

val armed_timer_count : t -> int
(** Timers currently armed (one-shots not yet fired plus interval timers).
    Pure observation: no trap, no time charge; O(1) (the deadline heap's
    length, not a list walk). *)

val armed_timer_peak : t -> int
(** High-water mark of {!armed_timer_count} over the kernel's lifetime. *)

val submit_io : t -> latency_ns:int -> requester:int -> unit
(** Submit an asynchronous I/O request completing after [latency_ns]; posts
    [SIGIO] with origin [Io requester].  A kernel call. *)

val blocking_read : t -> latency_ns:int -> unit
(** A {e blocking} kernel call (e.g. reading a directory, for which "UNIX
    does not provide non-blocking equivalents" — the paper's Open
    Problems).  The whole process stalls inside the kernel for the I/O
    latency: no thread of a library implementation can run meanwhile.
    Counted under ["read"]; see also {!blocking_io_ns}. *)

val blocking_io_ns : t -> int
(** Total virtual time this process has spent stalled in blocking kernel
    I/O. *)

val set_io_ready : t -> (int -> unit) -> unit
(** Install the library's wake of a thread, by tid, whose readiness slot
    fired.  Default: ignore it. *)

val io_ready : t -> requester:int -> unit
(** A readiness slot filled by thread [requester] fired (the Unix
    backend's poll, or a close): wake it through the installed wake, at
    once and without a signal. *)

val take_io_completion : t -> requester:int -> bool
(** Consume one recorded I/O completion for the thread, if any.  SIGIO is
    only a doorbell: because BSD signals do not queue (the kernel keeps one
    pending slot per signal number), N concurrent completions can collapse
    into a single SIGIO delivery, so consumers must poll their completion
    state after any SIGIO ([aio_error]-style) — the completion {e counts}
    recorded here never collapse, only the doorbell does. *)

val completion_requesters : t -> int list
(** Requester tids with at least one unconsumed completion, in the order
    of their earliest one: by completion time, then submission.  Lets
    SIGIO delivery wake exactly the sigwaiting threads that have a
    completion to collect, in the order their I/O finished, instead of
    every SIGIO sigwaiter. *)

val check_events : t -> unit
(** Post signals for any timers or I/O completions whose time has come.
    Called by the library at every checkpoint. *)

val next_event_time : t -> int
(** Earliest armed timer expiry or I/O completion, [max_int] if none — used
    by the scheduler to advance the clock when all threads are blocked.
    Exact: once the clock reaches it, {!check_events} fires that timer or
    completes that I/O.  O(1). *)

(** {1 Accounting} *)

val trap_count : t -> int
val trap_counts : t -> (string * int) list
(** Per-syscall-name counts, sorted by name. *)

val sigsetmask_count : t -> int
val signals_posted : t -> int
val signals_lost : t -> int
val signals_delivered : t -> int
val window_trap_count : t -> int

val reset_counters : t -> unit
