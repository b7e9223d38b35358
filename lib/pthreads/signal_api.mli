(** The thread-level signal interface.

    Two delivery paths exist, matching the paper's internal/external
    distinction in Table 2:

    - {e internal}: {!kill} ([pthread_kill]) and {!raise_sync} go straight
      through the library's delivery model, never touching the (simulated)
      UNIX kernel;
    - {e external}: {!send_to_process} generates a real process-level
      signal; the library's universal handler picks it up at the next
      checkpoint, demultiplexes it (rules 1-6 of the recipient resolution)
      and installs a fake call — the expensive path.

    Handlers installed with {!set_action} run {e on the receiving thread at
    its priority}, via fake calls, with [h_mask] (plus the signal itself)
    added to the thread's mask for the duration.  A handler may call
    [Jmp.longjmp] to redirect control — the implementation-defined feature
    the paper's Ada runtime relies on. *)

open Vm
open Types

val set_action : engine -> signo -> action -> unit
(** Install the process-wide action for a signal.
    @raise Invalid_argument for SIGCANCEL or an invalid signal number. *)

val get_action : engine -> signo -> action

val kill : engine -> int -> signo -> unit
(** [pthread_kill]: direct a signal at a specific thread (rule 1 of the
    recipient resolution). *)

val raise_sync : engine -> ?code:int -> signo -> unit
(** Raise a synchronous signal (a fault) on the calling thread (rule 2);
    [code] distinguishes causes of the same signal, as the Ada runtime
    requires. *)

val send_to_process : engine -> signo -> unit
(** Generate an external, process-level signal (rules 5/6 pick the
    recipient). *)

val sigwait : engine -> Sigset.t -> signo
(** Suspend until one of the signals in the set is delivered to this
    thread; returns the signal number.  Consumes a matching signal already
    pended on the thread or the process first.  An interruption point. *)

val set_mask : engine -> [ `Block | `Unblock | `Set ] -> Sigset.t -> Sigset.t
(** Change the calling thread's signal mask; returns the previous mask.
    Unmasking re-examines signals pended on the thread and the process.
    SIGKILL/SIGSTOP-class signals cannot be masked. *)

val mask : engine -> Sigset.t

val thread_pending : engine -> Sigset.t
(** Signals pended on the calling thread (action rule 1). *)

val process_pending : engine -> Sigset.t
(** Signals pended on the process awaiting an eligible thread (rule 6). *)

val set_timer :
  engine -> after_ns:int -> ?interval_ns:int -> unit -> Unix_kernel.timer
(** Arm a timer delivering SIGALRM attributed to the calling thread
    (recipient rule 3); returns the timer for {!cancel_timer}. *)

val cancel_timer : engine -> Unix_kernel.timer -> unit

val aio_submit : engine -> latency_ns:int -> unit
(** Submit a simulated asynchronous I/O request; its completion delivers
    SIGIO attributed to the calling thread (recipient rule 4). *)

val aio_read : engine -> latency_ns:int -> unit
(** The convenient composite: submit and [sigwait] for the completion —
    only the calling {e thread} sleeps; the rest of the process keeps
    running. *)

val blocking_read : engine -> latency_ns:int -> unit
(** The problematic primitive of the paper's "Non-Blocking Kernel Calls"
    discussion: a blocking kernel call stalls the {e whole process} — every
    thread — for the I/O latency, because the library lives entirely in
    user space.

    @raise Types.Error with [Errno.EINTR] when the fault injector failed
    the underlying trap; the thread's [errno] field is set as UNIX would. *)
