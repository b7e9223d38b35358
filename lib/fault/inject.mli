(** Threads a {!Plan} through the engine probe.

    [install] subscribes to the engine probe's decision points (every
    checkpoint or kernel exit, see [Types.Decision]), numbers them, and
    applies the plan's actions at their points via the engine's injection
    primitives.  Trap faults are armed with [Vm.Unix_kernel]'s fault hook
    and fire at the next matching kernel call.  Signal bursts whose signo
    still has its (lethal) default action get a benign no-op handler
    installed up front, so a burst perturbs the run instead of ending it.

    The injector is per-run state: build a fresh engine, install, start. *)

type t

val install :
  ?on_point:(int -> unit) -> Pthreads.Types.engine -> Plan.t -> t
(** [on_point] is called at every fault point with its index, before any
    action applies — the soak harness checks invariants there.  It runs in
    the current thread's context and must not block or dispatch. *)

val points : t -> int
(** Fault points seen so far (the calibration count a {!Plan.random} call
    needs). *)

val injected : t -> int
(** Faults actually applied so far, including fired trap faults — the same
    number [Engine.stats] reports as [faults_injected]. *)
