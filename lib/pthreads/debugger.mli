(** Thread-level debugging support.

    The paper's future-work section asks for a debugging environment where
    "information could be extracted from the thread control block and made
    available to the user" and "context switches could become visible to
    the user".  This module provides both: TCB inspection for every thread
    in a process, and a context-switch notification stream with an optional
    single-step gate. *)

open Vm
open Types

(** A snapshot of one thread's control block. *)
type thread_info = {
  ti_tid : int;
  ti_name : string;
  ti_state : string;
  ti_prio : int;
  ti_base_prio : int;
  ti_sigmask : Sigset.t;
  ti_pending : Sigset.t;  (** signals pended on the thread *)
  ti_cancel_pending : bool;
  ti_held_mutexes : string list;
  ti_cleanup_depth : int;
  ti_switches_in : int;
}

val inspect : engine -> int -> thread_info option
(** Snapshot a thread by id. *)

val all_threads : engine -> thread_info list

val pp_thread : Format.formatter -> thread_info -> unit
val pp_process : Format.formatter -> engine -> unit
(** A ps(1)-style listing of every thread. *)

(** {1 Context-switch visibility} *)

type switch_event = { sw_at_ns : int; sw_tid : int; sw_name : string; sw_prio : int }

val watch_switches : engine -> (switch_event -> unit) -> unit
(** Invoke the callback at every dispatch, {e before} the switch is
    committed (the thread in the event is still ready, and the outgoing
    thread is still current): a watcher can veto or redirect the dispatch
    by raising.  See {!Types.Switch_in} and {!Engine.subscribe} for the
    full ordering contract. *)

val collect_switches : engine -> unit -> switch_event list
(** Convenience: record every switch; the returned thunk yields the events
    collected so far in dispatch order. *)

(** {1 Wait-for-graph analysis}

    The engine only declares deadlock when {e every} thread is blocked; the
    analyzer below finds mutex wait cycles even while unrelated threads
    keep running — the kind of information a thread-aware debugger should
    surface, per the paper's future-work discussion. *)

type wait_edge = { we_thread : thread_info; we_mutex : string; we_owner : thread_info }

val wait_edges : engine -> wait_edge list
(** Every "thread T waits for mutex M held by O" edge, as snapshots. *)

val find_deadlocks : engine -> (thread_info * string) list list
(** Cycles in the wait-for graph; each element of a cycle pairs a thread
    with the mutex it is waiting for.  Empty when no cycle exists. *)

val pp_deadlocks : Format.formatter -> (thread_info * string) list list -> unit
