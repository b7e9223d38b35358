open Vm
open Types

let make ~tid ~name ~prio ~detached ~body ~deferred =
  {
    tid;
    tname = name;
    state = (if deferred then Blocked On_start else Ready);
    detached;
    base_prio = prio;
    prio;
    boost_stack = [];
    sigmask = Sigset.empty;
    thr_pending = [];
    sigwait_set = Sigset.empty;
    sigwait_result = None;
    fake_frames = [];
    errno = 0;
    cleanup = [];
    tsd = [||] (* allocated on first Tsd.set *);
    cancel_state = Cancel_enabled;
    cancel_type = Cancel_controlled;
    cancel_pending = false;
    retval = None;
    joiners = Wait_queue.create ();
    cont = Not_started body;
    pending_wake = Wake_normal;
    owned = nil_mutex;
    sched_override = None;
    suspended = false;
    wait_deadline = no_deadline;
    n_switches_in = 0;
    q_next = nil_tcb;
    q_prev = nil_tcb;
    q_in = nil_pq;
    q_level = 0;
    at_next = None;
    at_prev = None;
  }

let is_live t = t.state <> Terminated

let pp ppf t =
  Format.fprintf ppf "%s(#%d prio=%d/%d %s)" t.tname t.tid t.prio t.base_prio
    (state_name t.state)
