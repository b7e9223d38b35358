open Import
open Types

type wait_result = Signaled | Interrupted | Timed_out

let create eng ?name () =
  let id = Engine.fresh_obj_id eng in
  let c_name =
    match name with Some n -> n | None -> "cond-" ^ string_of_int id
  in
  Engine.charge eng Costs.attr_op;
  let c = { c_id = id; c_name; c_waiters = Wait_queue.create (); c_mutex = None } in
  eng.all_conds <- c :: eng.all_conds;
  c

let wait_internal eng c m ~deadline =
  Engine.checkpoint eng;
  Engine.test_cancel eng;
  let self = Engine.current eng in
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.touch eng (Engine.key_mutex m.m_id);
  (match m.m_owner with
  | Some o when o == self -> ()
  | _ -> raise (Error (Errno.EPERM, "Cond.wait: mutex " ^ m.m_name ^ " not held by caller")));
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  (match c.c_mutex with
  | Some bound when bound != m ->
      raise (Error (Errno.EINVAL, "Cond.wait: " ^ c.c_name ^ " is bound to " ^ bound.m_name))
  | Some _ | None -> c.c_mutex <- Some m);
  (* release the mutex atomically with the suspension *)
  Mutex.release_in_kernel eng m;
  self.state <- Blocked (On_cond c);
  Wait_queue.push_tail c.c_waiters self;
  Engine.trace eng self (Trace.Cond_block c.c_name);
  let timer_id =
    match deadline with
    | Some d ->
        Engine.set_wait_deadline eng self ~deadline:d;
        let after_ns = max 0 (d - Engine.now eng) in
        Some
          (Unix_kernel.arm_timer eng.vm ~after_ns ~interval_ns:0
             ~signo:Sigset.sigalrm
             ~origin:(Unix_kernel.Timer self.tid))
    | None -> None
  in
  let wake = Engine.block eng in
  (* The wait is over on every path (signal, interruption, timeout): a
     still-armed one-shot SIGALRM would otherwise fire later against a
     thread that is no longer waiting, spuriously interrupting whatever
     it blocks on next.  On timeout the timer usually fired already and
     the disarm is a no-op — but a lost concurrent alarm can leave it
     armed even then (the scheduler wakes expired sleepers itself). *)
  (match timer_id with
  | Some id -> Unix_kernel.disarm_timer eng.vm id
  | None -> ());
  self.wait_deadline <- no_deadline;
  (* A signaled wake carries the signaler's happens-before edge: join the
     clock published at the cond.  Spurious and timed-out wakes carry no
     edge — only the mutex reacquisition below orders them. *)
  if wake = Wake_normal then Engine.san_merge eng (Engine.key_cond c.c_id);
  (* Reacquire before any handler runs (the wrapper's first action). *)
  Mutex.lock_after_wait eng m;
  Engine.drain_fake_calls eng;
  Engine.test_cancel eng;
  match wake with
  | Wake_normal -> Signaled
  | Wake_timeout -> Timed_out
  | Wake_interrupted -> (
      match deadline with
      | Some d when Engine.now eng >= d -> Timed_out
      | _ -> Interrupted)

let wait eng c m = wait_internal eng c m ~deadline:None

let wait_until eng c m ~deadline_ns =
  wait_internal eng c m ~deadline:(Some deadline_ns)

let signal eng c =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.san_publish eng (Engine.key_cond c.c_id);
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  (match Wait_queue.peek_highest c.c_waiters with
  | None -> ()
  | Some w ->
      Engine.trace eng w (Trace.Cond_wake c.c_name);
      Engine.unblock eng w Wake_normal);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let broadcast eng c =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.san_publish eng (Engine.key_cond c.c_id);
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  (* the whole burst is one kernel-flag round: each waiter is made ready
     without a per-wake preemption test, then one test covers them all *)
  let rec wake_all best =
    match Wait_queue.peek_highest c.c_waiters with
    | None -> best
    | Some w ->
        Engine.trace eng w (Trace.Cond_wake c.c_name);
        let best =
          if Engine.unblock_core eng w Wake_normal then max best w.prio
          else best
        in
        wake_all best
  in
  Engine.flag_if_preempts eng (wake_all min_int);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let waiter_count c = Wait_queue.size c.c_waiters

let wait_for eng c m ~timeout_ns =
  wait_until eng c m ~deadline_ns:(Engine.now eng + timeout_ns)
