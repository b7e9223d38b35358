open Vm
open Types

type wait_result = Signaled | Interrupted | Timed_out

let create eng ?name () =
  let id = Engine.fresh_obj_id eng in
  let c_name =
    match name with Some n -> n | None -> "cond-" ^ string_of_int id
  in
  Engine.charge eng Costs.attr_op;
  let c_waiters = Wait_queue.create () in
  let rec c =
    {
      c_id = id;
      c_name;
      c_waiters;
      c_mutex = nil_mutex;
      c_blocked = Blocked (On_cond c);
      c_census_next = nil_cond;
    }
  in
  Engine.census_add_cond eng c;
  c

(* A timed wait arms a one-shot SIGALRM for its deadline.  The wait is
   over on every path (signal, interruption, timeout): a still-armed alarm
   would otherwise fire later against a thread that is no longer waiting,
   spuriously interrupting whatever it blocks on next.  On timeout the
   timer usually fired already and the disarm is a no-op — but a lost
   concurrent alarm can leave it armed even then (the scheduler wakes
   expired sleepers itself). *)
let block_until eng self deadline =
  Engine.set_wait_deadline eng self ~deadline;
  let timer =
    Unix_kernel.arm_timer eng.vm ~after_ns:(max 0 (deadline - Engine.now eng))
      ~interval_ns:0 ~signo:Sigset.sigalrm ~origin:(Unix_kernel.Timer self.tid)
  in
  let wake = Engine.block eng in
  Unix_kernel.disarm_timer eng.vm timer;
  wake

(* [deadline] is absolute, [no_deadline] for an untimed wait. *)
let wait_internal eng c m ~deadline =
  Engine.checkpoint eng;
  Engine.test_cancel eng;
  let self = Engine.current eng in
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.touch eng (Engine.key_mutex m.m_id);
  if m.m_owner != self then
    raise (Error (Errno.EPERM, "Cond.wait: mutex " ^ m.m_name ^ " not held by caller"));
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  let bound = c.c_mutex in
  if bound == nil_mutex then c.c_mutex <- m
  else if bound != m then
    raise (Error (Errno.EINVAL, "Cond.wait: " ^ c.c_name ^ " is bound to " ^ bound.m_name));
  (* release the mutex atomically with the suspension *)
  Mutex.release_in_kernel eng m;
  self.state <- c.c_blocked;
  Wait_queue.push_tail c.c_waiters self;
  if Engine.tracing eng then Engine.trace eng self (Trace.Cond_block c.c_name);
  let wake =
    if deadline = no_deadline then Engine.block eng
    else block_until eng self deadline
  in
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
  | Wake_interrupted ->
      if deadline <> no_deadline && Engine.now eng >= deadline then Timed_out
      else Interrupted

let wait eng c m = wait_internal eng c m ~deadline:no_deadline

let wait_until eng c m ~deadline_ns = wait_internal eng c m ~deadline:deadline_ns

let signal eng c =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.san_publish eng (Engine.key_cond c.c_id);
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  let w = Wait_queue.peek_highest c.c_waiters in
  if w != nil_tcb then begin
    if Engine.tracing eng then Engine.trace eng w (Trace.Cond_wake c.c_name);
    Engine.unblock eng w Wake_normal
  end;
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

(* Make every waiter ready, returning the best woken priority. *)
let rec wake_all eng c best =
  let w = Wait_queue.peek_highest c.c_waiters in
  if w == nil_tcb then best
  else begin
    if Engine.tracing eng then Engine.trace eng w (Trace.Cond_wake c.c_name);
    let best = if Engine.unblock_core eng w Wake_normal then max best w.prio else best in
    wake_all eng c best
  end

let broadcast eng c =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_cond c.c_id);
  Engine.san_publish eng (Engine.key_cond c.c_id);
  Engine.enter_kernel eng;
  Engine.charge eng Costs.cond_op;
  (* the whole burst is one kernel-flag round: each waiter is made ready
     without a per-wake preemption test, then one test covers them all *)
  Engine.flag_if_preempts eng (wake_all eng c min_int);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let waiter_count c = Wait_queue.size c.c_waiters

let wait_for eng c m ~timeout_ns =
  wait_until eng c m ~deadline_ns:(Engine.now eng + timeout_ns)
