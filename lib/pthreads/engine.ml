open Vm
open Types

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let trace eng t kind =
  Trace.record eng.trace ~t_ns:(Unix_kernel.now eng.vm) ~tid:t.tid
    ~tname:t.tname kind

(* Trace kinds that carry a payload ([Mutex_lock name], [Prio_change]...)
   are built only under this test: the constructor allocates before
   [trace] can look at the enabled flag. *)
let tracing eng = Trace.enabled eng.trace

(* Every kernel-flag write funnels through here so that traced runs carry
   a Kernel_enter/Kernel_exit pair per monitor occupancy (the counter
   track behind the observability layer's kernel-flag timeline).  Traces
   only actual transitions; charges nothing. *)
let set_kernel_flag eng b =
  if eng.kernel_flag <> b then begin
    trace eng eng.current (if b then Trace.Kernel_enter else Trace.Kernel_exit);
    eng.kernel_flag <- b
  end

(* The engine probe.  Every emitter matches on [eng.probes] before it
   builds its event: the emitters sit on the lock/unlock and dispatch fast
   paths of every program, observed or not. *)
let subscribe eng f = eng.probes <- eng.probes @ [ f ]

let unsubscribe eng f =
  let rec drop = function
    | [] -> []
    | g :: rest -> if g == f then rest else g :: drop rest
  in
  eng.probes <- drop eng.probes

let rec emit ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      emit ev rest

(* Requeue the running thread at the tail of bucket [level] and request
   a dispatch: yield, a time slice, a chooser's switch, a forced
   preemption. *)
let requeue_current eng level =
  let cur = eng.current in
  cur.state <- Ready;
  Wait_queue.push_tail_at eng.ready cur level;
  trace eng cur Trace.Ready;
  eng.dispatcher_flag <- true

let charge eng n = Unix_kernel.insns eng.vm n
let now eng = Unix_kernel.now eng.vm
let current eng = eng.current

(* ------------------------------------------------------------------ *)
(* Schedule-exploration support                                        *)
(* ------------------------------------------------------------------ *)

(* Object keys: a step's footprint is the set of synchronization objects it
   may read or write, encoded as ints (kind in the high byte, object id
   below) so the explorer can intersect footprints without allocation.
   Two steps are dependent iff their footprints intersect; every step also
   implicitly touches its executing thread's key (added by the explorer). *)

let key_kind_mutex = 1
let key_kind_cond = 2
let key_kind_thread = 3
let key_kind_signal = 4
let key_kind_user = 5
let key_kind_lock = 6
let key_kind_sem = 7
let key_kind_io = 8
let key_mutex id = (key_kind_mutex lsl 24) lor id
let key_cond id = (key_kind_cond lsl 24) lor id
let key_thread tid = (key_kind_thread lsl 24) lor tid
let key_signal s = (key_kind_signal lsl 24) lor s
let key_user id = (key_kind_user lsl 24) lor (id land 0xFFFFFF)
let key_lock id = (key_kind_lock lsl 24) lor id
let key_sem id = (key_kind_sem lsl 24) lor id
let key_io id = (key_kind_io lsl 24) lor id

let key_kind k = k lsr 24

let key_to_string k =
  let id = k land 0xFFFFFF in
  match k lsr 24 with
  | 1 -> Printf.sprintf "mutex:%d" id
  | 2 -> Printf.sprintf "cond:%d" id
  | 3 -> Printf.sprintf "thread:%d" id
  | 4 -> Printf.sprintf "signal:%d" id
  | 5 -> Printf.sprintf "user:%d" id
  | 6 -> Printf.sprintf "lock:%d" id
  | 7 -> Printf.sprintf "sem:%d" id
  | 8 -> Printf.sprintf "io:%d" id
  | _ -> Printf.sprintf "key:%x" k

let set_chooser eng c = eng.chooser <- c
let has_chooser eng = eng.chooser <> None

let touch eng key =
  match eng.probes with [] -> () | ps -> emit (Touch key) ps

(* An annotated access is one event for both consumers: the explorer
   takes its key as footprint, the race detector its read/write kind. *)
let touch_rw eng key ~write =
  match eng.probes with
  | [] -> ()
  | ps -> emit (San_access { a_key = key; a_write = write }) ps

let san_acquire eng key ~name ~excl =
  match eng.probes with
  | [] -> ()
  | ps -> emit (San_acquire { q_key = key; q_name = name; q_excl = excl }) ps

let san_release eng key =
  match eng.probes with [] -> () | ps -> emit (San_release { r_key = key }) ps

let san_publish eng key =
  match eng.probes with [] -> () | ps -> emit (San_publish { p_key = key }) ps

let san_merge eng key =
  match eng.probes with [] -> () | ps -> emit (San_merge { g_key = key }) ps

let san_join eng tid =
  match eng.probes with
  | [] -> ()
  | ps -> emit (San_join { j_target = tid }) ps

(* ------------------------------------------------------------------ *)
(* The thread table: every live (or unjoined) thread, as an intrusive    *)
(* doubly-linked list in creation order plus a tid-indexed slot array.   *)
(* ------------------------------------------------------------------ *)

let find_thread eng tid =
  let slots = eng.threads.tt_slots in
  if tid >= 0 && tid < Array.length slots then slots.(tid) else None

let is_registered eng t =
  let slots = eng.threads.tt_slots in
  t.tid < Array.length slots
  && (match slots.(t.tid) with Some t' -> t' == t | None -> false)

let thread_table_add eng t =
  let tt = eng.threads in
  let some_t = Some t in
  t.at_prev <- tt.tt_tail;
  t.at_next <- None;
  (match tt.tt_tail with
  | Some tail -> tail.at_next <- some_t
  | None -> tt.tt_head <- some_t);
  tt.tt_tail <- some_t;
  tt.tt_count <- tt.tt_count + 1;
  let n = Array.length tt.tt_slots in
  if t.tid >= n then begin
    let arr = Array.make (max 64 (max (2 * n) (t.tid + 1))) None in
    Array.blit tt.tt_slots 0 arr 0 n;
    tt.tt_slots <- arr
  end;
  tt.tt_slots.(t.tid) <- some_t

let thread_table_remove eng t =
  if is_registered eng t then begin
    let tt = eng.threads in
    (match t.at_prev with
    | Some p -> p.at_next <- t.at_next
    | None -> tt.tt_head <- t.at_next);
    (match t.at_next with
    | Some n -> n.at_prev <- t.at_prev
    | None -> tt.tt_tail <- t.at_prev);
    t.at_prev <- None;
    t.at_next <- None;
    tt.tt_count <- tt.tt_count - 1;
    tt.tt_slots.(t.tid) <- None;
    eng.free_tids <- t.tid :: eng.free_tids
  end

(* Creation order, as the paper's rule-5 linear search requires.  [f] may
   unblock or modify the visited thread but must not unregister it. *)
let iter_threads eng f =
  let rec go = function
    | None -> ()
    | Some t ->
        let next = t.at_next in
        f t;
        go next
  in
  go eng.threads.tt_head

let fold_threads eng f acc =
  let rec go acc = function
    | None -> acc
    | Some t ->
        let next = t.at_next in
        go (f acc t) next
  in
  go acc eng.threads.tt_head

let thread_list eng = List.rev (fold_threads eng (fun acc t -> t :: acc) [])

(* The chooser's view of the ready set, in creation order (the order the
   explorer's schedules are written in), copied into the engine's
   reusable array: no list is built per pick. *)
let rec fill_ready_view eng n = function
  | None -> n
  | Some t when t.state <> Ready -> fill_ready_view eng n t.at_next
  | Some t ->
      if n = Array.length eng.ready_view then
        eng.ready_view <- Array.append eng.ready_view (Array.make (n + 8) nil_tcb);
      eng.ready_view.(n) <- t;
      fill_ready_view eng (n + 1) t.at_next

let ready_view eng = fill_ready_view eng 0 eng.threads.tt_head
let ready_at eng i = eng.ready_view.(i)

(* ------------------------------------------------------------------ *)
(* The object census: every mutex and cond in creation order, for the  *)
(* invariant checker.  Intrusive and append-only.                      *)
(* ------------------------------------------------------------------ *)

let census_add_mutex eng m =
  let last = eng.census_mutexes_last in
  m.m_census_next <- nil_mutex;
  if last == nil_mutex then eng.census_mutexes <- m else last.m_census_next <- m;
  eng.census_mutexes_last <- m

let iter_mutexes eng f =
  let rec go m =
    if m != nil_mutex then begin
      let next = m.m_census_next in
      f m;
      go next
    end
  in
  go eng.census_mutexes

let census_add_cond eng c =
  let last = eng.census_conds_last in
  c.c_census_next <- nil_cond;
  if last == nil_cond then eng.census_conds <- c else last.c_census_next <- c;
  eng.census_conds_last <- c

let iter_conds eng f =
  let rec go c =
    if c != nil_cond then begin
      let next = c.c_census_next in
      f c;
      go next
    end
  in
  go eng.census_conds

let fresh_tid eng =
  match eng.free_tids with
  | tid :: rest ->
      eng.free_tids <- rest;
      tid
  | [] ->
      let tid = eng.next_tid in
      eng.next_tid <- tid + 1;
      tid

let fresh_obj_id eng =
  let id = eng.next_obj in
  eng.next_obj <- id + 1;
  id

let default_config profile =
  {
    profile;
    policy = Fifo;
    perverted = No_perversion;
    seed = 42;
    use_pool = true;
    pool_prealloc = 16;
    trace_enabled = false;
    main_prio = default_prio;
    ceiling_mode = Stack_pop;
  }

(* ------------------------------------------------------------------ *)
(* Priorities                                                          *)
(* ------------------------------------------------------------------ *)

let rec set_effective_prio eng t new_prio ~at_head =
  if new_prio <> t.prio then begin
    if tracing eng then trace eng t (Trace.Prio_change (t.prio, new_prio));
    (* priority changes are cross-thread interactions (inheritance boosts,
       ceiling pops): the explorer must consider reordering them against
       the affected thread's steps, so they join the footprint *)
    touch eng (key_thread t.tid);
    match t.state with
    | Ready ->
        Wait_queue.remove eng.ready t;
        t.prio <- new_prio;
        if at_head then Wait_queue.push_head eng.ready t
        else Wait_queue.push_tail eng.ready t;
        if new_prio > eng.current.prio && eng.current.state = Running then
          eng.dispatcher_flag <- true
    | Running ->
        t.prio <- new_prio;
        if Wait_queue.highest_prio eng.ready > new_prio then
          eng.dispatcher_flag <- true
    | Blocked (On_mutex m) -> (
        let old_prio = t.prio in
        t.prio <- new_prio;
        Wait_queue.reposition m.m_waiters t ~old_prio;
        (* Propagate an inheritance boost down the blocking chain. *)
        let o = m.m_owner in
        if o != nil_tcb && m.m_protocol = Inherit_protocol && o.prio < new_prio
        then begin
          charge eng Costs.inherit_search_per_mutex;
          set_effective_prio eng o new_prio ~at_head:true
        end)
    | Blocked (On_cond c) ->
        let old_prio = t.prio in
        t.prio <- new_prio;
        Wait_queue.reposition c.c_waiters t ~old_prio
    | Blocked (On_io w) ->
        let old_prio = t.prio in
        t.prio <- new_prio;
        Wait_queue.reposition w.io_waiters t ~old_prio
    | Blocked (On_join _ | On_sigwait _ | On_sleep | On_start | On_suspend
              | On_shared _ | On_await)
    | Terminated ->
        t.prio <- new_prio
  end

let recompute_inherited_prio eng o =
  let rec search acc m =
    if m == nil_mutex then acc
    else begin
      charge eng Costs.inherit_search_per_mutex;
      let acc =
        match m.m_protocol with
        | Inherit_protocol -> max acc (Wait_queue.highest_prio m.m_waiters)
        | Ceiling_protocol when eng.cfg.ceiling_mode = Recompute ->
            max acc m.m_ceiling
        | Ceiling_protocol | No_protocol -> acc
      in
      search acc m.m_held_next
    end
  in
  set_effective_prio eng o (search o.base_prio o.owned) ~at_head:true

(* ------------------------------------------------------------------ *)
(* The sleep heap: timed waiters indexed by deadline                   *)
(* ------------------------------------------------------------------ *)

(* Binary min-heap over (deadline, tid), with lazy deletion: entries are
   never removed when a waiter is woken early — they are discarded when
   they surface, recognized as dead because the thread's [wait_deadline]
   no longer matches (or it is no longer in a timed wait).  Duplicates
   are harmless for the same reason: waking an already-ready thread is a
   no-op. *)

let sleep_lt a b = a.se_d < b.se_d || (a.se_d = b.se_d && a.se_tid < b.se_tid)

let sleep_entry_live e =
  e.se_t.wait_deadline = e.se_d
  && match e.se_t.state with
     | Blocked (On_sleep | On_cond _) -> true
     | _ -> false

let sleep_push eng ~deadline t =
  let h = eng.sleeps in
  let e = { se_d = deadline; se_tid = t.tid; se_t = t } in
  let cap = Array.length h.sh_arr in
  if h.sh_len = cap then begin
    let arr = Array.make (max 8 (2 * cap)) e in
    Array.blit h.sh_arr 0 arr 0 cap;
    h.sh_arr <- arr
  end;
  let arr = h.sh_arr in
  let i = ref h.sh_len in
  h.sh_len <- h.sh_len + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if sleep_lt e arr.(p) then begin
      arr.(!i) <- arr.(p);
      i := p
    end
    else sifting := false
  done;
  arr.(!i) <- e

let sleep_sift_down h =
  let arr = h.sh_arr and n = h.sh_len in
  let e = arr.(0) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c = if l + 1 < n && sleep_lt arr.(l + 1) arr.(l) then l + 1 else l in
      if sleep_lt arr.(c) e then begin
        arr.(!i) <- arr.(c);
        i := c
      end
      else sifting := false
    end
  done;
  arr.(!i) <- e

let sleep_pop_root h =
  h.sh_len <- h.sh_len - 1;
  if h.sh_len > 0 then begin
    h.sh_arr.(0) <- h.sh_arr.(h.sh_len);
    sleep_sift_down h
  end

(* Earliest live timed-wait deadline, [no_deadline] when none (dead
   entries are dropped on the way) — the idle loop's replacement for a
   fold over all threads. *)
let rec sleep_next_deadline eng =
  let h = eng.sleeps in
  if h.sh_len = 0 then no_deadline
  else
    let e = h.sh_arr.(0) in
    if sleep_entry_live e then e.se_d
    else begin
      sleep_pop_root h;
      sleep_next_deadline eng
    end

(* Begin a timed wait: record the absolute deadline on the TCB and index
   it in the sleep heap, so expiry processing touches only due waiters
   instead of scanning every thread. *)
let set_wait_deadline eng t ~deadline =
  t.wait_deadline <- deadline;
  sleep_push eng ~deadline t

(* ------------------------------------------------------------------ *)
(* Unblocking                                                          *)
(* ------------------------------------------------------------------ *)

(* [unblock_core] does everything except the preemption test and reports
   whether the thread actually became ready.  [unblock] tests immediately;
   the mass-wakeup paths (broadcast, joiner release, expired sleepers)
   accumulate the best woken priority and test once per burst, so waking n
   threads costs one dispatcher-flag round instead of n.  Equivalent to
   per-wake tests: the flag is sticky and the running thread's state and
   priority cannot change between the wakes of one burst. *)
let unblock_core eng t wake =
  match t.state with
  | Blocked reason ->
      (match reason with
      | On_mutex m ->
          Wait_queue.remove m.m_waiters t;
          if m.m_owner != nil_tcb && m.m_protocol = Inherit_protocol then
            recompute_inherited_prio eng m.m_owner
      | On_cond c ->
          Wait_queue.remove c.c_waiters t;
          if Wait_queue.is_empty c.c_waiters then c.c_mutex <- nil_mutex
      | On_join target -> Wait_queue.remove target.joiners t
      | On_io w -> Wait_queue.remove w.io_waiters t
      | On_sigwait _ -> t.sigwait_set <- Sigset.empty
      | On_start ->
          (* lazy creation: resources are allocated at activation time *)
          Heap.acquire_slab eng.heap
      | On_sleep | On_suspend -> ()
      | On_shared _ | On_await ->
          (* the shared object's library or the task handle removed us
             from its queue *)
          ());
      t.wait_deadline <- no_deadline;
      t.pending_wake <- wake;
      if t.suspended then begin
        (* an explicit suspension is pending: park instead of running; the
           wake reason is preserved for the eventual resume *)
        t.state <- Blocked On_suspend;
        false
      end
      else begin
        t.state <- Ready;
        Wait_queue.push_tail eng.ready t;
        trace eng t Trace.Ready;
        true
      end
  | Ready | Running | Terminated -> false

let flag_if_preempts eng prio =
  if prio > eng.current.prio && eng.current.state = Running then
    eng.dispatcher_flag <- true

let unblock eng t wake =
  if unblock_core eng t wake then flag_if_preempts eng t.prio

(* ------------------------------------------------------------------ *)
(* Signal delivery model                                               *)
(* ------------------------------------------------------------------ *)

(* A thread can receive a signal if its mask admits it; a thread suspended
   in sigwait counts as having the awaited signals unmasked (the paper:
   "sigwait is just another case where the signal is unmasked"). *)
let eligible t s =
  Tcb.is_live t
  && ((not (Sigset.mem t.sigmask s)) || Sigset.mem t.sigwait_set s)

(* Timed waits arm SIGALRM timers, and BSD signals do not queue: when two
   timers expire in the same window the second SIGALRM is lost (the paper:
   "signals should be blocked for the shortest interval possible to avoid
   the loss of signals at the UNIX process level").  Like the real library,
   we therefore treat every alarm as a demultiplexing point and wake every
   thread whose deadline has passed, not only the timer's owner. *)
let wake_expired_sleepers eng =
  let time = Unix_kernel.now eng.vm in
  let h = eng.sleeps in
  (* the first due sleeper is held apart so the usual single wake builds
     no list *)
  let first = ref nil_tcb and due = ref [] in
  let draining = ref true in
  while !draining && h.sh_len > 0 do
    let e = h.sh_arr.(0) in
    if sleep_entry_live e && e.se_d > time then draining := false
    else begin
      sleep_pop_root h;
      if sleep_entry_live e then
        if !first == nil_tcb then first := e.se_t else due := e.se_t :: !due
    end
  done;
  if !first == nil_tcb then ()
  else if !due = [] then begin
    let t = !first in
    if unblock_core eng t Wake_timeout then flag_if_preempts eng t.prio
  end
  else
    let ts = !due @ [ !first ] in
    (* wake in creation (tid) order, as the all-threads scan this
       replaces did; one preemption test for the whole burst *)
    let ts = List.sort (fun a b -> compare a.tid b.tid) ts in
    let best =
      List.fold_left
        (fun best t ->
          if unblock_core eng t Wake_timeout then max best t.prio else best)
        min_int ts
    in
    flag_if_preempts eng best

(* Rule 5: linear search of the list of all threads, in creation order
   (kept deliberately linear — the paper's design); [nil_tcb] if none. *)
let rec search_eligible eng s = function
  | None -> nil_tcb
  | Some t ->
      charge eng Costs.signal_search_per_thread;
      if eligible t s then t else search_eligible eng s t.at_next

let live_thread eng tid =
  match find_thread eng tid with
  | Some t when Tcb.is_live t -> t
  | Some _ | None -> nil_tcb

(* Recipient resolution (6 rules) and action resolution (7 rules), straight
   from the paper's "Signal Handling" section.  A signal travels as its
   three fields; a [pending_sig] record is built only where one is stored
   (thread, process or deferred pending). *)
let rec direct_signal eng s code origin =
  charge eng Costs.signal_direct;
  let recipient =
    match origin with
    (* rules 1-4: directed, synchronous, timer, I/O *)
    | Unix_kernel.Directed tid
    | Unix_kernel.Sync tid
    | Unix_kernel.Timer tid
    | Unix_kernel.Io tid ->
        live_thread eng tid
    | Unix_kernel.Slice ->
        if eng.current.state = Running then eng.current else nil_tcb
    | Unix_kernel.External -> search_eligible eng s eng.threads.tt_head
  in
  if recipient != nil_tcb then act_on eng recipient s code origin
  else
    match origin with
    | Unix_kernel.Slice -> ()
    | _ ->
        (* rule 6: pend on the process until a thread becomes eligible
           (stored newest-first; drained oldest-first) *)
        eng.proc_pending <-
          { p_signo = s; p_code = code; p_origin = origin } :: eng.proc_pending

and act_on eng t s code origin =
  if s = Sigset.sigcancel then handle_cancel_signal eng t
  else if Sigset.mem t.sigmask s && not (Sigset.mem t.sigwait_set s) then
    (* action rule 1: masked -> pend on the thread (newest first) *)
    t.thr_pending <- { p_signo = s; p_code = code; p_origin = origin } :: t.thr_pending
  else begin
    let timer_origin =
      match origin with
      | Unix_kernel.Timer _ | Unix_kernel.Slice -> true
      | _ -> false
    in
    if s = Sigset.sigalrm && timer_origin then
      (* action rule 2: alarm from a timer expiration *)
      match (origin, t.state) with
      | Unix_kernel.Slice, Running
        when t == eng.current && t.sched_override <> Some Sched_fifo ->
          (* time-slicing: position at the tail of the ready queue (threads
             with a per-thread FIFO policy are exempt).  A slice SIGALRM can
             have absorbed a timed-wait wakeup (one pending slot per
             signal), so it too is a demultiplexing point. *)
          requeue_current eng t.prio;
          wake_expired_sleepers eng
      | Unix_kernel.Slice, _ -> wake_expired_sleepers eng
      | _, Blocked (On_sigwait set) when Sigset.mem set s ->
          sigwait_deliver eng t s
      | _, Blocked (On_sleep | On_cond _) ->
          (* "the selected thread becomes ready if it was suspended" *)
          let wake =
            if now eng >= t.wait_deadline then Wake_timeout
            else Wake_interrupted
          in
          unblock eng t wake;
          (* a lost concurrent SIGALRM may have stranded another sleeper *)
          wake_expired_sleepers eng
      | _, _ -> wake_expired_sleepers eng
    else if
      s = Sigset.sigio
      && (match origin with Unix_kernel.Io _ -> true | _ -> false)
    then begin
      (* I/O completions are level-triggered: concurrent completions can
         share one (non-queuing) SIGIO, so a woken waiter re-checks its own
         completion state.  The kernel records which requester each
         completion belongs to, so the doorbell wakes exactly the
         [aio_read] sigwaiters that have a completion to collect (in
         completion order, so same-priority readers run in the order
         their I/O finished) instead of every SIGIO sigwaiter.  [Net]
         does not wait here: its sockets block in [On_io] and are woken
         by [wake_io_ready].  A doorbell with no completed sigwaiter still
         falls back to the full scan, so plain sigwait(SIGIO) users keep
         the old wakeup. *)
      let woke_any = ref false in
      let wake_waiter w =
        match w.state with
        | Blocked (On_sigwait set) when Sigset.mem set s ->
            woke_any := true;
            sigwait_deliver eng w s
        | _ -> ()
      in
      List.iter
        (fun tid ->
          match find_thread eng tid with
          | Some w -> wake_waiter w
          | None -> ())
        (Unix_kernel.completion_requesters eng.vm);
      if not !woke_any then
        iter_threads eng wake_waiter;
      if not !woke_any then
        match eng.actions.(s) with
        | Sig_handler { h_mask; h_fn } ->
            charge eng Costs.fake_call_setup;
            eng.n_thread_signals <- eng.n_thread_signals + 1;
            if tracing eng then trace eng t (Trace.Signal_delivered s);
            t.fake_frames <-
              Fake_handler
                { fh_signo = s; fh_code = code; fh_mask = h_mask; fh_fn = h_fn }
              :: t.fake_frames;
            (match t.state with
            | Blocked (On_mutex _ | On_start | On_suspend) -> ()
            | Blocked _ -> unblock eng t Wake_interrupted
            | Ready | Running | Terminated -> ())
        | Sig_ignore | Sig_default -> () (* SIGIO default: ignore *)
    end
    else
      match t.state with
      | Blocked (On_sigwait set) when Sigset.mem set s ->
          (* action rule 3: wake the sigwait *)
          sigwait_deliver eng t s
      | _ -> (
          match eng.actions.(s) with
          | Sig_handler { h_mask; h_fn } -> (
              (* action rule 4: install a fake call *)
              charge eng Costs.fake_call_setup;
              eng.n_thread_signals <- eng.n_thread_signals + 1;
              if tracing eng then trace eng t (Trace.Signal_delivered s);
              t.fake_frames <-
                Fake_handler
                  { fh_signo = s; fh_code = code; fh_mask = h_mask; fh_fn = h_fn }
                :: t.fake_frames;
              match t.state with
              | Blocked
                  (On_mutex _ | On_start | On_suspend | On_shared _ | On_await)
                ->
                  (* a mutex wait is not an interruption point, and a
                     suspended thread stays suspended: the handler runs at
                     acquisition/resumption *)
                  ()
              | Blocked _ -> unblock eng t Wake_interrupted
              | Ready | Running | Terminated -> ())
          | Sig_ignore -> () (* action rule 6 *)
          | Sig_default ->
              (* action rule 7: default action on the process *)
              eng.stop_reason <- Some (Killed_by_signal s))
  end

and sigwait_deliver eng t s =
  t.sigwait_result <- Some s;
  (* "signals specified in the call to sigwait are masked for the thread" *)
  t.sigmask <- Sigset.union t.sigmask t.sigwait_set;
  unblock eng t Wake_normal

and handle_cancel_signal eng t =
  trace eng t Trace.Cancel_request;
  touch eng (key_thread t.tid);
  t.cancel_pending <- true;
  match (t.cancel_state, t.cancel_type) with
  | Cancel_disabled, _ -> () (* Table 1: pends until enabled *)
  | Cancel_enabled, Cancel_asynchronous -> act_cancel eng t
  | Cancel_enabled, Cancel_controlled -> (
      (* Table 1: pends until an interruption point; a thread suspended at
         one is acted upon now.  A mutex wait is explicitly *not* an
         interruption point. *)
      match t.state with
      | Blocked (On_cond _ | On_join _ | On_sigwait _ | On_sleep | On_io _) ->
          act_cancel eng t
      | _ -> ())

and act_cancel eng t =
  if Tcb.is_live t then begin
    t.cancel_pending <- false;
    t.cancel_state <- Cancel_disabled;
    t.sigmask <- Sigset.all_maskable;
    charge eng Costs.fake_call_setup;
    t.fake_frames <- Fake_exit :: t.fake_frames;
    match t.state with
    | Blocked (On_mutex _ | On_suspend | On_shared _ | On_await) ->
        () (* dies at acquisition/resume *)
    | Blocked _ -> unblock eng t Wake_interrupted
    | Ready | Running | Terminated -> ()
  end

let recheck_thread_pending eng t =
  if t.thr_pending <> [] then begin
    let deliverable, still =
      List.partition
        (fun p ->
          (not (Sigset.mem t.sigmask p.p_signo))
          || Sigset.mem t.sigwait_set p.p_signo)
        t.thr_pending
    in
    t.thr_pending <- still;
    (* the list is stored newest-first; deliver oldest-first *)
    List.iter (fun p -> act_on eng t p.p_signo p.p_code p.p_origin) (List.rev deliverable)
  end

let recheck_proc_pending eng =
  if eng.proc_pending <> [] then begin
    let ps = List.rev eng.proc_pending in
    eng.proc_pending <- [];
    List.iter (fun p -> direct_signal eng p.p_signo p.p_code p.p_origin) ps
  end

(* The universal signal handler: installed at the UNIX level for every
   maskable signal.  A signal caught while the kernel flag is set is logged
   and deferred to dispatch time; otherwise the handler enters the kernel,
   re-enables signals (sigsetmask #1), directs the signal, requests a
   dispatch and re-disables signals before returning (sigsetmask #2) — the
   paper's "two calls to sigsetmask for each signal received". *)
let universal_handler eng ~signo ~code ~origin =
  if eng.kernel_flag then begin
    eng.deferred <- { p_signo = signo; p_code = code; p_origin = origin } :: eng.deferred;
    eng.dispatcher_flag <- true
  end
  else begin
    set_kernel_flag eng true;
    charge eng Costs.kernel_enter;
    ignore (Unix_kernel.sigsetmask eng.vm Sigset.empty : Sigset.t);
    direct_signal eng signo code origin;
    eng.dispatcher_flag <- true;
    ignore (Unix_kernel.sigsetmask eng.vm Sigset.all_maskable : Sigset.t);
    charge eng Costs.kernel_exit;
    set_kernel_flag eng false
  end

(* Whether delivering [s] now could make a thread runnable: a handler
   interrupts a blocked wait, and a [sigwait] on it returns.  An ignored
   signal, or a default action that ends the process, wakes nobody.  An
   idle backend asks this only with no deadline and no watch. *)
let signal_wakes eng s =
  match eng.actions.(s) with
  | Sig_handler _ -> true
  | Sig_ignore | Sig_default ->
      fold_threads eng
        (fun found t ->
          found
          ||
          match t.state with
          | Blocked (On_sigwait set) -> Sigset.mem set s
          | _ -> false)
        false

(* Wake the threads whose socket watches fired in the backend's last poll,
   in poll order.  A fired requester is a tid: one that is no longer
   blocked in an I/O wait (it was cancelled, or the tid was reaped) is
   skipped, and a recycled tid now in some other I/O wait gets a spurious
   wake that its retry loop absorbs. *)
let wake_io_ready eng =
  match Unix_kernel.take_io_ready eng.vm with
  | [] -> ()
  | tids ->
      let saved = eng.kernel_flag in
      set_kernel_flag eng true;
      List.iter
        (fun tid ->
          match find_thread eng tid with
          | Some ({ state = Blocked (On_io _); _ } as t) ->
              unblock eng t Wake_normal
          | Some _ | None -> ())
        tids;
      set_kernel_flag eng saved

let poll_signals eng =
  (* Import external events first (real fd readiness, forwarded host
     signals); a no-op closure on the virtual backend. *)
  eng.backend.Backend.pump ();
  wake_io_ready eng;
  Unix_kernel.check_events eng.vm;
  try
    while Unix_kernel.has_deliverable eng.vm do
      ignore (Unix_kernel.deliver_pending eng.vm : bool)
    done
  with Unix_kernel.Process_killed s ->
    eng.stop_reason <- Some (Killed_by_signal s)

(* ------------------------------------------------------------------ *)
(* The dispatcher (Figure 2)                                           *)
(* ------------------------------------------------------------------ *)

let rec dispatch eng : wake =
  eng.dispatcher_flag <- false;
  if eng.deferred <> [] then begin
    (* handle signals caught while in the kernel, then restart: their
       handling may change the thread to be dispatched next *)
    let ds = List.rev eng.deferred in
    eng.deferred <- [];
    List.iter (fun p -> direct_signal eng p.p_signo p.p_code p.p_origin) ds;
    dispatch eng
  end
  else begin
    charge eng Costs.dispatch_select;
    let cur = eng.current in
    let stay =
      match cur.state with
      | Running ->
          if Wait_queue.highest_prio eng.ready > cur.prio then begin
            (* preempted: the thread goes to the head of its level *)
            cur.state <- Ready;
            Wait_queue.push_head eng.ready cur;
            trace eng cur Trace.Ready;
            false
          end
          else true
      | Ready | Blocked _ | Terminated -> false
    in
    if stay then begin
      charge eng Costs.dispatch_inline;
      set_kernel_flag eng false;
      Wake_normal
    end
    else switch_out eng
  end

and switch_out eng =
  let cur = eng.current in
  eng.n_switches <- eng.n_switches + 1;
  trace eng cur Trace.Dispatch_out;
  charge eng Costs.switch_save;
  Unix_kernel.flush_windows eng.vm;
  set_kernel_flag eng false;
  (* Control returns (with the wake reason) when the scheduler loop
     dispatches this thread again. *)
  Effect.perform Suspend

(* ------------------------------------------------------------------ *)
(* Monolithic monitor entry/exit, the chooser                         *)
(* ------------------------------------------------------------------ *)

let enter_kernel eng =
  charge eng Costs.kernel_enter;
  set_kernel_flag eng true

let can_give_way eng =
  eng.current.state = Running && eng.in_fiber && eng.live_count > 1

(* Every kernel exit and every checkpoint outside the kernel.  [Decision]
   subscribers run first, in a thread only: they only mutate state and
   set [dispatcher_flag], and the enclosing point performs any switch
   requested.  The chooser is asked only when the running thread could
   give way, so a policy that draws random numbers draws them at exactly
   these points. *)
let decision_point eng point =
  (match eng.probes with
  | _ :: _ as ps when eng.in_fiber -> emit Decision ps
  | _ -> ());
  match eng.chooser with
  | Some c when can_give_way eng ->
      let level = c.ch_requeue point eng.current in
      if level >= 0 then requeue_current eng level
  | _ -> ()

let leave_kernel eng =
  charge eng Costs.kernel_exit;
  decision_point eng At_kernel_exit;
  if eng.dispatcher_flag then ignore (dispatch eng : wake)
  else set_kernel_flag eng false

let block eng = dispatch eng

(* A successful lock.  A chooser that wants a switch here gets a kernel
   round trip, whose exit performs it; the round trip is paid even when
   the thread has nobody to give way to. *)
let mutex_acquired eng =
  match eng.chooser with
  | None -> ()
  | Some c ->
      let level = c.ch_requeue At_mutex_acquired eng.current in
      if level >= 0 then begin
        enter_kernel eng;
        if can_give_way eng then requeue_current eng level;
        leave_kernel eng
      end

(* ------------------------------------------------------------------ *)
(* Fake calls                                                          *)
(* ------------------------------------------------------------------ *)

let rec drain_fake_calls eng =
  let t = eng.current in
  match t.fake_frames with
  | [] -> ()
  | frame :: rest ->
      t.fake_frames <- rest;
      (match frame with
      | Fake_exit -> raise (Thread_exit_exn Canceled)
      | Fake_handler { fh_signo; fh_code; fh_mask; fh_fn } ->
          (* the wrapper of Figure 3 *)
          charge eng Costs.wrapper;
          let saved_errno = t.errno and saved_mask = t.sigmask in
          t.sigmask <- Sigset.add (Sigset.union t.sigmask fh_mask) fh_signo;
          (match fh_fn ~signo:fh_signo ~code:fh_code with
          | () ->
              t.errno <- saved_errno;
              t.sigmask <- saved_mask
          | exception e ->
              t.errno <- saved_errno;
              t.sigmask <- saved_mask;
              raise e);
          (* pending signals on the thread and process are handled if now
             enabled *)
          recheck_thread_pending eng t;
          recheck_proc_pending eng);
      drain_fake_calls eng

let checkpoint eng =
  charge eng Costs.checkpoint_poll;
  poll_signals eng;
  (match eng.stop_reason with
  | Some r -> raise (Process_stopped r)
  | None -> ());
  (* Checkpoints model the instruction boundaries at which the paper's
     implementation could leave the kernel, so the chooser is consulted
     here as well — otherwise programs that stay on the kernel-free fast
     paths would never be perturbed. *)
  if not eng.kernel_flag then decision_point eng At_checkpoint;
  if eng.dispatcher_flag && not eng.kernel_flag then begin
    set_kernel_flag eng true;
    charge eng Costs.kernel_enter;
    ignore (dispatch eng : wake)
  end;
  drain_fake_calls eng

let test_cancel eng =
  let t = eng.current in
  if t.cancel_pending && t.cancel_state = Cancel_enabled then begin
    act_cancel eng t;
    drain_fake_calls eng (* raises Thread_exit_exn Canceled *)
  end

(* ------------------------------------------------------------------ *)
(* I/O waits                                                           *)
(* ------------------------------------------------------------------ *)

let io_wait_create eng ~name =
  let rec w =
    {
      io_id = fresh_obj_id eng;
      io_name = name;
      io_waiters = Wait_queue.create ();
      io_blocked = Blocked (On_io w);
    }
  in
  w

(* Called and returning inside the kernel, so the caller's test of its
   condition and this suspension are one atomic step.  Blocking is an
   interruption point: a cancellation already pending is acted upon
   instead of sleeping, and one requested during the wait unblocks the
   thread with a [Fake_exit] that the drain below raises.  A normal wake
   is never consumed by a cancellation: the caller re-tests its condition
   first, and a cancellation that arrived meanwhile waits for the next
   interruption point. *)
let io_block eng w =
  let self = eng.current in
  if self.cancel_pending && self.cancel_state = Cancel_enabled then begin
    set_kernel_flag eng false;
    test_cancel eng
  end;
  self.state <- w.io_blocked;
  Wait_queue.push_tail w.io_waiters self;
  ignore (block eng : wake);
  (* the caller re-reads the object's state in this new step *)
  touch eng (key_io w.io_id);
  drain_fake_calls eng;
  enter_kernel eng

(* A wake publishes the waker's clock at the key whether or not anybody
   waits: the reader that later finds the data merges it (as [Cond.signal]
   publishes for its waiters). *)
let io_wake_one eng w =
  san_publish eng (key_io w.io_id);
  let t = Wait_queue.peek_highest w.io_waiters in
  if t != nil_tcb then unblock eng t Wake_normal

let io_wake_all eng w =
  san_publish eng (key_io w.io_id);
  let rec go best =
    let t = Wait_queue.peek_highest w.io_waiters in
    if t == nil_tcb then best
    else go (if unblock_core eng t Wake_normal then max best t.prio else best)
  in
  flag_if_preempts eng (go min_int)

let yield eng =
  checkpoint eng;
  enter_kernel eng;
  requeue_current eng eng.current.prio;
  ignore (dispatch eng : wake);
  drain_fake_calls eng

let busy eng ~ns =
  let slice = 2_000 in
  let rec go remaining =
    if remaining > 0 then begin
      let step = min slice remaining in
      Unix_kernel.advance eng.vm step;
      checkpoint eng;
      go (remaining - step)
    end
  in
  go ns

(* ------------------------------------------------------------------ *)
(* Thread lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let register_thread eng t =
  (* no [touch] here: a thread can never be scheduled before its creation,
     so creation needs no race analysis — recording it would only make the
     explorer backtrack over unreorderable pairs *)
  thread_table_add eng t;
  eng.live_count <- eng.live_count + 1;
  eng.n_created <- eng.n_created + 1;
  (match eng.probes with
  | [] -> ()
  | ps -> emit (San_create { c_child = t.tid }) ps);
  if tracing eng then trace eng t (Trace.Thread_create t.tname);
  charge eng Costs.create_thread;
  match t.state with
  | Ready ->
      Heap.acquire_slab eng.heap;
      Wait_queue.push_tail eng.ready t;
      trace eng t Trace.Ready;
      if t.prio > eng.current.prio && eng.current.state = Running then
        eng.dispatcher_flag <- true
  | Blocked On_start -> () (* lazy creation: no resources yet *)
  | Running | Blocked _ | Terminated -> assert false

let reap_thread eng t =
  charge eng Costs.reap_thread;
  Heap.release_slab eng.heap;
  thread_table_remove eng t

let finish_current eng status =
  let t = eng.current in
  (* remaining cleanup handlers run first (user code), newest first *)
  let rec run_cleanups () =
    match t.cleanup with
    | [] -> ()
    | f :: rest ->
        t.cleanup <- rest;
        charge eng Costs.cleanup_op;
        (try f () with _ -> ());
        run_cleanups ()
  in
  run_cleanups ();
  (* thread-specific-data destructors: up to four passes *)
  let pass () =
    let ran = ref false in
    if Array.length t.tsd > 0 then
      for key = 0 to eng.tsd_next - 1 do
        match (t.tsd.(key), eng.tsd_destructors.(key)) with
        | Some v, Some d ->
            t.tsd.(key) <- None;
            ran := true;
            (try d v with _ -> ())
        | (Some _ | None), _ -> ()
      done;
    !ran
  in
  let rec passes n = if n > 0 && pass () then passes (n - 1) in
  passes 4;
  enter_kernel eng;
  touch eng (key_thread t.tid);
  t.retval <- Some status;
  t.state <- Terminated;
  eng.live_count <- eng.live_count - 1;
  emit San_exit eng.probes;
  trace eng t Trace.Thread_exit;
  if t.owned != nil_mutex then
    trace eng t (Trace.Note "terminated while holding mutexes");
  (* all joiners wake at once: one preemption test for the burst *)
  let rec wake_joiners best =
    match Wait_queue.pop_highest t.joiners with
    | Some j ->
        wake_joiners (if unblock_core eng j Wake_normal then max best j.prio else best)
    | None -> best
  in
  flag_if_preempts eng (wake_joiners min_int);
  if t.detached then begin
    Heap.release_slab eng.heap;
    thread_table_remove eng t
  end;
  charge eng Costs.kernel_exit;
  set_kernel_flag eng false

(* ------------------------------------------------------------------ *)
(* Fibers and the scheduler loop                                       *)
(* ------------------------------------------------------------------ *)

let fiber_body eng t body () =
  match
    try
      (* a thread canceled before its first dispatch dies here *)
      drain_fake_calls eng;
      Ok (Exited (body ()))
    with
    | Thread_exit_exn st -> Ok st
    | Process_stopped _ -> Error ()
    | e -> Ok (Failed e)
  with
  | Ok status -> finish_current eng status
  | Error () ->
      (* the whole process is stopping; skip user-level unwinding *)
      t.state <- Terminated;
      eng.live_count <- eng.live_count - 1

let start_fiber eng t body =
  Effect.Deep.match_with (fiber_body eng t body) () eng.fiber_handler

let resume_thread eng t =
  (* The switch is announced *before* the dispatch is committed: [t] is
     still [Ready] and [eng.current] still names the outgoing thread, so
     a subscriber (the debugger's watchers, validators) observes the
     decision at a point where it can still veto or redirect the switch
     by raising.  See [Types.Switch_in]. *)
  (match eng.probes with [] -> () | ps -> emit (Switch_in t) ps);
  t.state <- Running;
  t.n_switches_in <- t.n_switches_in + 1;
  eng.n_dispatches <- eng.n_dispatches + 1;
  eng.current <- t;
  Unix_kernel.window_underflow eng.vm;
  charge eng Costs.switch_restore;
  trace eng t Trace.Dispatch_in;
  eng.in_fiber <- true;
  (match t.cont with
  | Not_started body ->
      t.cont <- No_cont;
      start_fiber eng t body
  | Saved k ->
      t.cont <- No_cont;
      let w = t.pending_wake in
      t.pending_wake <- Wake_normal;
      Effect.Deep.continue k w
  | No_cont -> assert false);
  eng.in_fiber <- false

let describe_blocked eng =
  let live = List.filter Tcb.is_live (thread_list eng) in
  String.concat "; " (List.map (fun t -> Format.asprintf "%a" Tcb.pp t) live)

let run_scheduler eng =
  let rec loop () =
    if eng.stop_reason <> None then ()
    else if eng.live_count <= 0 then ()
    else begin
      poll_signals eng;
      eng.dispatcher_flag <- false;
      (* a main-less process's owner may give its unit back in the pump *)
      if eng.stop_reason <> None || eng.live_count <= 0 then ()
      else begin
        let next =
          match eng.chooser with
          | None -> Wait_queue.peek_highest eng.ready
          | Some c -> c.ch_pick eng
        in
        if next != nil_tcb then begin
          Wait_queue.remove eng.ready next;
          resume_thread eng next;
          loop ()
        end
        else begin
            (* everyone is blocked: advance the clock to the next timer or
               I/O completion; with none, wake any sleeper whose deadline
               passed while its (lost) alarm never arrived; otherwise the
               process is deadlocked. *)
            let next =
              min (Unix_kernel.next_event_time eng.vm) (sleep_next_deadline eng)
            in
            let engine_next = if next = max_int then None else Some next in
            (* the backend sleeps until the next event: the virtual one
               advances the clock to the deadline (deadlock when there is
               none); the Unix one blocks in ppoll and may wake on
               external events even without a deadline; a [Machine]
               process yields to its machine *)
            if eng.backend.Backend.wait ~deadline_ns:engine_next then begin
              wake_expired_sleepers eng;
              loop ()
            end
            else eng.stop_reason <- Some (Deadlock (describe_blocked eng))
        end
      end
    end
  in
  loop ();
  match eng.stop_reason with
  | Some r -> raise (Process_stopped r)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Signals: public entry points                                        *)
(* ------------------------------------------------------------------ *)

let send_signal eng signo ~code ~origin =
  if tracing eng then trace eng eng.current (Trace.Signal_sent signo);
  touch eng (key_signal signo);
  (match origin with
  | Unix_kernel.Directed tid -> touch eng (key_thread tid)
  | _ -> ());
  direct_signal eng signo code origin;
  eng.dispatcher_flag <- true

let post_external eng signo ?(code = 0) () =
  if tracing eng then trace eng eng.current (Trace.Signal_sent signo);
  touch eng (key_signal signo);
  Unix_kernel.kill eng.vm signo ~code ~origin:Unix_kernel.External ()

(* ------------------------------------------------------------------ *)
(* Fault injection primitives                                          *)
(* ------------------------------------------------------------------ *)

(* Each primitive runs from a [Decision] subscriber, i.e. at a kernel exit
   or a checkpoint.  They take the kernel flag themselves (the universal
   handler must see the library as busy while queues are edited), never
   dispatch inline — requested switches happen when the enclosing point
   checks [dispatcher_flag] — and count every applied fault. *)

let note_fault eng = eng.n_faults_injected <- eng.n_faults_injected + 1

let in_kernel eng f =
  let saved = eng.kernel_flag in
  set_kernel_flag eng true;
  Fun.protect ~finally:(fun () -> set_kernel_flag eng saved) f

let inject_preempt eng =
  let cur = eng.current in
  if cur.state = Running && eng.live_count > 1 then begin
    note_fault eng;
    trace eng cur (Trace.Note "fault: forced preemption");
    requeue_current eng min_prio
  end

let inject_wakeup eng t =
  match t.state with
  | Blocked (On_cond _) ->
      note_fault eng;
      trace eng t (Trace.Note "fault: spurious wakeup");
      in_kernel eng (fun () -> unblock eng t Wake_interrupted)
  | _ -> ()

let inject_signal eng signo ~target =
  note_fault eng;
  match target with
  | `Process -> post_external eng signo ()
  | `Thread t ->
      in_kernel eng (fun () ->
          send_signal eng signo ~code:0 ~origin:(Unix_kernel.Directed t.tid))

let inject_cancel eng t =
  if t.state <> Terminated then begin
    note_fault eng;
    trace eng t (Trace.Note "fault: cancellation request");
    in_kernel eng (fun () ->
        send_signal eng Sigset.sigcancel ~code:0
          ~origin:(Unix_kernel.Directed t.tid))
  end

let inject_clock_jump eng ~ns =
  note_fault eng;
  trace eng eng.current (Trace.Note "fault: clock jump");
  Unix_kernel.advance eng.vm ns

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's debugging policies ("Perverted Scheduling") as choosers.
   The mutex switch requeues the locker in its own bucket; the other two
   demote the runner to the lowest one, and the random switch picks
   uniformly only right after its own coin sent the runner away. *)
let highest_ready eng = Wait_queue.peek_highest eng.ready

let perverted_chooser rng = function
  | No_perversion -> None
  | Mutex_switch ->
      let ch_requeue point cur = if point = At_mutex_acquired then cur.prio else -1 in
      Some { ch_requeue; ch_pick = highest_ready }
  | Rr_ordered_switch ->
      let ch_requeue point _ = if point = At_mutex_acquired then -1 else min_prio in
      Some { ch_requeue; ch_pick = highest_ready }
  | Random_switch ->
      let coin = ref false in
      let ch_requeue point _ =
        if point <> At_mutex_acquired && Rng.bool rng then (coin := true; min_prio)
        else -1
      and ch_pick eng =
        if not !coin then highest_ready eng
        else (coin := false; Wait_queue.random_member eng.ready rng)
      in
      Some { ch_requeue; ch_pick }

let make ?clock ?backend ?main cfg =
  let backend =
    match backend with
    | Some b -> b
    | None -> Backend.virtual_ ?clock cfg.profile
  in
  let vm = backend.Backend.kernel in
  let heap = Heap.create vm ~use_pool:cfg.use_pool () in
  let trace_rec = Trace.create () in
  Trace.set_enabled trace_rec cfg.trace_enabled;
  let main_tcb =
    Option.map
      (fun body ->
        Tcb.make ~tid:0 ~name:"main" ~prio:cfg.main_prio ~detached:false
          ~body ~deferred:false)
      main
  in
  let rng = Rng.create cfg.seed
  and ready = Wait_queue.create ()
  and threads =
    { tt_head = None; tt_tail = None; tt_count = 0; tt_slots = Array.make 64 None }
  and sleeps = { sh_arr = [||]; sh_len = 0 }
  and actions = Array.make (Sigset.max_signo + 1) Sig_default
  and tsd_destructors = Array.make max_tsd_keys None in
  (* The handler's answer to [Suspend] is built once too: [effc] runs on
     every context switch. *)
  let rec save_current =
    Some (fun (k : (wake, unit) Effect.Deep.continuation) -> eng.current.cont <- Saved k)
  and eng =
    {
      vm;
      backend;
      heap;
      trace = trace_rec;
      cfg;
      rng;
      kernel_flag = false;
      dispatcher_flag = false;
      deferred = [];
      current = Option.value main_tcb ~default:nil_tcb (* until a dispatch *);
      ready;
      threads;
      sleeps;
      next_tid = 1;
      free_tids = [];
      next_obj = 1;
      actions;
      proc_pending = [];
      live_count = 1;
      n_switches = 0;
      n_dispatches = 0;
      n_created = 0;
      n_thread_signals = 0;
      tsd_destructors;
      tsd_next = 0;
      stop_reason = None;
      in_fiber = false;
      probes = [];
      chooser = perverted_chooser rng cfg.perverted;
      ready_view = [||];
      census_mutexes = nil_mutex;
      census_mutexes_last = nil_mutex;
      census_conds = nil_cond;
      census_conds_last = nil_cond;
      n_faults_injected = 0;
      net_state = Ext_none;
      shard_state = Ext_none;
      fiber_handler =
        {
          retc = (fun () -> ());
          exnc = (fun e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with Suspend -> save_current | _ -> None);
        };
    }
  in
  (* Library initialization: a universal handler for all maskable UNIX
     signals, benign defaults for the signals whose UNIX default is to be
     ignored, the TCB/stack pool, the time-slice timer, main's stack. *)
  let catch =
    Unix_kernel.Catch
      {
        mask = Sigset.all_maskable;
        fn = (fun ~signo ~code ~origin -> universal_handler eng ~signo ~code ~origin);
      }
  in
  List.iter
    (fun s -> Unix_kernel.sigaction vm s catch)
    (Sigset.to_list Sigset.all_maskable);
  Unix_kernel.set_signal_wakes vm (signal_wakes eng);
  eng.actions.(Sigset.sigchld) <- Sig_ignore;
  eng.actions.(Sigset.sigio) <- Sig_ignore;
  if cfg.use_pool && cfg.pool_prealloc > 0 then
    Heap.preallocate heap cfg.pool_prealloc;
  (match cfg.policy with
  | Fifo -> ()
  | Round_robin quantum ->
      ignore
        (Unix_kernel.arm_timer vm ~after_ns:quantum ~interval_ns:quantum
           ~signo:Sigset.sigalrm ~origin:Unix_kernel.Slice
          : Unix_kernel.timer));
  (match main_tcb with
  | Some t ->
      Heap.acquire_slab heap;
      thread_table_add eng t;
      Wait_queue.push_tail eng.ready t;
      trace eng t Trace.Ready
  | None -> ());
  eng

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  virtual_ns : int;
  switches : int;
  kernel_traps : int;
  trap_detail : (string * int) list;
  sigsetmask_calls : int;
  signals_posted : int;
  signals_delivered_unix : int;
  signals_lost : int;
  thread_handler_runs : int;
  threads_created : int;
  heap_allocations : int;
  faults_injected : int;
  timers_armed : int;
}

let stats eng =
  {
    virtual_ns = Unix_kernel.now eng.vm;
    switches = eng.n_switches;
    kernel_traps = Unix_kernel.trap_count eng.vm;
    trap_detail = Unix_kernel.trap_counts eng.vm;
    sigsetmask_calls = Unix_kernel.sigsetmask_count eng.vm;
    signals_posted = Unix_kernel.signals_posted eng.vm;
    signals_delivered_unix = Unix_kernel.signals_delivered eng.vm;
    signals_lost = Unix_kernel.signals_lost eng.vm;
    thread_handler_runs = eng.n_thread_signals;
    threads_created = eng.n_created;
    heap_allocations = Heap.allocations eng.heap;
    faults_injected = eng.n_faults_injected + Unix_kernel.trap_faults eng.vm;
    timers_armed = Unix_kernel.armed_timer_count eng.vm;
  }

let dispatch_count eng = eng.n_dispatches

let reset_stats eng =
  Unix_kernel.reset_counters eng.vm;
  eng.n_switches <- 0;
  eng.n_created <- 0;
  eng.n_thread_signals <- 0;
  eng.n_faults_injected <- 0

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>virtual time: %.1f us@ context switches: %d@ kernel traps: %d \
     (sigsetmask: %d)@ signals: %d posted, %d delivered, %d lost, %d \
     handler runs@ threads created: %d; heap allocations: %d@ faults \
     injected: %d@]"
    (Clock.us_of_ns s.virtual_ns)
    s.switches s.kernel_traps s.sigsetmask_calls s.signals_posted
    s.signals_delivered_unix s.signals_lost s.thread_handler_runs
    s.threads_created s.heap_allocations s.faults_injected
