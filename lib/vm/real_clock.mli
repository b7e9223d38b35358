(** Host wall-clock time, in the units the rest of the system uses.

    The only module outside {!Real_kernel} that should touch host time:
    everything else reads the {!Clock} of its kernel (virtual backends) or
    lets {!Real_kernel} synchronize that clock from here (Unix backend).
    Bench harnesses use it for wall-clock budgets. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary but fixed origin (process start), from
    the host's clock.  Monotone non-decreasing within a process. *)

val now_s : unit -> float
(** Seconds, same origin — for wall-clock budgets and rate reports. *)
