open Vm
open Types

let create eng ?name ?(protocol = No_protocol) ?ceiling () =
  let id = Engine.fresh_obj_id eng in
  let m_name =
    match name with Some n -> n | None -> "mutex-" ^ string_of_int id
  in
  let m_ceiling =
    match (protocol, ceiling) with
    | Ceiling_protocol, Some c ->
        if c < min_prio || c > max_prio then
          raise (Error (Errno.EINVAL, "Mutex.create: ceiling out of range"));
        c
    | Ceiling_protocol, None ->
        raise (Error (Errno.EINVAL, "Mutex.create: ceiling protocol requires ~ceiling"))
    | (No_protocol | Inherit_protocol), _ -> 0
  in
  Engine.charge eng Costs.attr_op;
  let m_waiters = Wait_queue.create () in
  let rec m =
    {
      m_id = id;
      m_name;
      m_protocol = protocol;
      m_ceiling;
      m_locked = false;
      m_owner = nil_tcb;
      m_waiters;
      m_locks = 0;
      m_contended = 0;
      m_held_next = nil_mutex;
      m_held_prev = nil_mutex;
      m_blocked = Blocked (On_mutex m);
      m_census_next = nil_mutex;
    }
  in
  Engine.census_add_mutex eng m;
  m

let holds self m = m.m_owner == self

(* Figure 4: ldstub inside a restartable atomic sequence that also records
   the owner — the whole uncontended acquisition stays out of the kernel. *)
let acquire_fast eng m =
  Engine.charge eng Costs.mutex_fast_lock;
  if m.m_locked then false
  else begin
    m.m_locked <- true;
    m.m_owner <- Engine.current eng;
    true
  end

(* The owner's held list is intrusive through the mutexes themselves:
   push at the head (newest first), unlink from anywhere. *)
let push_owned self m =
  let head = self.owned in
  m.m_held_prev <- nil_mutex;
  m.m_held_next <- head;
  if head != nil_mutex then head.m_held_prev <- m;
  self.owned <- m

let drop_owned self m =
  let prev = m.m_held_prev and next = m.m_held_next in
  if prev != nil_mutex then prev.m_held_next <- next
  else if self.owned == m then self.owned <- next;
  if next != nil_mutex then next.m_held_prev <- prev;
  m.m_held_prev <- nil_mutex;
  m.m_held_next <- nil_mutex

(* Post-acquisition bookkeeping (owner already recorded). *)
let on_acquired eng m =
  let self = Engine.current eng in
  push_owned self m;
  m.m_locks <- m.m_locks + 1;
  Engine.san_acquire eng (Engine.key_mutex m.m_id) ~name:m.m_name ~excl:true;
  if Engine.tracing eng then Engine.trace eng self (Trace.Mutex_lock m.m_name);
  (match m.m_protocol with
  | Ceiling_protocol ->
      (* SRP emulation: boost to the ceiling at acquisition, remembering
         the previous level on the per-thread stack *)
      Engine.charge eng Costs.ceiling_push_pop;
      self.boost_stack <- self.prio :: self.boost_stack;
      if m.m_ceiling > self.prio then
        Engine.set_effective_prio eng self m.m_ceiling ~at_head:true
  | Inherit_protocol | No_protocol -> ());
  Engine.mutex_acquired eng

(* inheritance: boost the owner (and transitively whoever blocks it) *)
let boost_owner eng m self =
  let o = m.m_owner in
  if m.m_protocol = Inherit_protocol && o != nil_tcb && o.prio < self.prio then
    Engine.set_effective_prio eng o self.prio ~at_head:true

(* Top-level, not a local closure: a contended lock captures nothing. *)
let rec wait_for_handoff eng m self =
  self.state <- m.m_blocked;
  Wait_queue.push_tail m.m_waiters self;
  let (_ : wake) = Engine.block eng in
  (* Resumed outside the kernel.  The handler wrapper (fake calls) runs
     only now — a mutex wait is not an interruption point. *)
  Engine.drain_fake_calls eng;
  if not (holds self m) then begin
    Engine.enter_kernel eng;
    boost_owner eng m self;
    wait_for_handoff eng m self
  end

let lock_slow eng m =
  let self = Engine.current eng in
  Engine.enter_kernel eng;
  Engine.charge eng Costs.mutex_slow;
  m.m_contended <- m.m_contended + 1;
  if Engine.tracing eng then Engine.trace eng self (Trace.Mutex_block m.m_name);
  boost_owner eng m self;
  wait_for_handoff eng m self;
  on_acquired eng m

let do_lock eng m =
  let self = Engine.current eng in
  Engine.touch eng (Engine.key_mutex m.m_id);
  if holds self m then
    raise (Error (Errno.EDEADLK, "Mutex.lock: " ^ m.m_name ^ " already held by caller"));
  if acquire_fast eng m then on_acquired eng m else lock_slow eng m

let lock eng m =
  Engine.checkpoint eng;
  do_lock eng m

let lock_after_wait eng m = do_lock eng m

let try_lock eng m =
  Engine.checkpoint eng;
  let self = Engine.current eng in
  Engine.touch eng (Engine.key_mutex m.m_id);
  if holds self m then
    raise (Error (Errno.EDEADLK, "Mutex.try_lock: already held by caller"));
  if acquire_fast eng m then begin
    on_acquired eng m;
    true
  end
  else false

(* Priority restoration on unlock, per protocol. *)
let lower_on_unlock eng m =
  let self = Engine.current eng in
  match m.m_protocol with
  | No_protocol -> ()
  | Inherit_protocol -> Engine.recompute_inherited_prio eng self
  | Ceiling_protocol -> (
      Engine.charge eng Costs.ceiling_push_pop;
      match self.boost_stack with
      | [] -> () (* unmatched unlock order; behavior undefined per paper *)
      | saved :: rest -> (
          self.boost_stack <- rest;
          match eng.cfg.ceiling_mode with
          | Stack_pop ->
              (* pure SRP: restore the level saved at acquisition — this is
                 the column Pc of Table 4 and diverges when protocols mix *)
              Engine.set_effective_prio eng self saved ~at_head:true
          | Recompute ->
              (* inheritance-style linear search, the fix the paper
                 suggests when protocols are mixed *)
              Engine.recompute_inherited_prio eng self))

let release_transfer eng m =
  (* Wake the highest-priority waiter, handing it the mutex directly. *)
  let w = Wait_queue.peek_highest m.m_waiters in
  if w == nil_tcb then begin
    m.m_locked <- false;
    m.m_owner <- nil_tcb
  end
  else begin
    Engine.charge eng Costs.mutex_transfer;
    m.m_owner <- w;
    Engine.unblock eng w Wake_normal
  end

let do_unlock eng m ~dispatching =
  let self = Engine.current eng in
  Engine.touch eng (Engine.key_mutex m.m_id);
  if not (holds self m) then
    raise (Error (Errno.EPERM, "Mutex.unlock: " ^ m.m_name ^ " not held by caller"));
  Engine.charge eng Costs.mutex_fast_unlock;
  drop_owned self m;
  Engine.san_release eng (Engine.key_mutex m.m_id);
  if Engine.tracing eng then Engine.trace eng self (Trace.Mutex_unlock m.m_name);
  (* Uncontended releases stay out of the kernel whenever the protocol does
     not require touching priorities: always for plain mutexes, and for
     inheritance mutexes whose owner was never boosted.  A ceiling unlock
     must restore the saved level but can still avoid the kernel unless the
     restoration makes a preemption necessary. *)
  let uncontended_fast =
    Wait_queue.is_empty m.m_waiters
    &&
    match m.m_protocol with
    | No_protocol -> true
    | Inherit_protocol -> self.prio = self.base_prio
    | Ceiling_protocol -> false
  in
  if uncontended_fast then begin
    m.m_locked <- false;
    m.m_owner <- nil_tcb
  end
  else if Wait_queue.is_empty m.m_waiters && m.m_protocol = Ceiling_protocol
  then begin
    m.m_locked <- false;
    m.m_owner <- nil_tcb;
    lower_on_unlock eng m;
    if dispatching && eng.dispatcher_flag then begin
      Engine.enter_kernel eng;
      Engine.leave_kernel eng;
      Engine.drain_fake_calls eng
    end
  end
  else begin
    if dispatching then Engine.enter_kernel eng;
    Engine.charge eng Costs.mutex_slow;
    lower_on_unlock eng m;
    release_transfer eng m;
    if dispatching then begin
      Engine.leave_kernel eng;
      Engine.drain_fake_calls eng
    end
  end

let unlock eng m =
  Engine.checkpoint eng;
  do_unlock eng m ~dispatching:true

let release_in_kernel eng m = do_unlock eng m ~dispatching:false

let owner_tid m = if m.m_owner == nil_tcb then None else Some m.m_owner.tid
let is_locked m = m.m_locked
let waiter_count m = Wait_queue.size m.m_waiters
let lock_count m = m.m_locks
let contention_count m = m.m_contended
