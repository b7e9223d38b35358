(** Miniature UNIX process model — the paper's baseline comparator.

    Table 2 compares the thread library against plain UNIX processes on two
    rows: "UNIX process context switch" and "UNIX signal handler".  The
    paper's methodology: "The UNIX process context switch time was measured
    by timing the execution of two alternating processes which activate each
    other by exchanging signals minus the time required for process signal
    delivery."

    This module reproduces that experiment on the virtual clock.  A process
    switch saves and restores the *full* context — register windows plus
    globals, floating-point registers and the status word, and runs the
    kernel scheduler — which is why it is several times more expensive than
    the library's thread switch (which only touches the register windows). *)

val signal_roundtrip_ns : Cost_model.profile -> iterations:int -> float
(** Average cost of a process sending itself a signal and handling it
    ([kill] + delivery + empty handler + [sigreturn]) — Table 2's "UNIX
    signal handler" row.  Runs on a private {!Unix_kernel}. *)

val context_switch_ns : Cost_model.profile -> iterations:int -> float
(** The paper's subtraction: the average cost of one leg of the
    two-process signal ping-pong ([kill] to the peer, [sigpause], a full
    process switch, then delivery on the peer; two kernels share one
    clock) minus {!signal_roundtrip_ns} — Table 2's "UNIX process context
    switch" row. *)
