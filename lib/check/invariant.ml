open Pthreads
open Pthreads.Types

(* All checks report through an early-exit reference: the first violation
   found is the one the explorer attributes to the schedule, so the walk
   order below is deliberately stable (mutexes, then conds, then threads,
   each in creation order). *)

let find_violation eng ~final =
  let bad = ref None in
  let report msg = if !bad = None then bad := Some msg in
  let owns_recorded o m = List.memq m (owned_list o) in
  let check_mutex m =
    (match (m.m_locked, owner m) with
    | true, None -> report (m.m_name ^ " is locked but has no owner")
    | false, Some o ->
        report (m.m_name ^ " has owner " ^ o.tname ^ " but is not locked")
    | _ -> ());
    (match owner m with
    | Some o when m.m_locked ->
        if o.state = Terminated then
          report
            (Printf.sprintf "%s leaked: owner %s terminated while holding it"
               m.m_name o.tname)
        else if owns_recorded o m then begin
          (* Discipline checks only once the owner has completed its
             acquisition bookkeeping: a direct hand-off (release_transfer)
             names the new owner before that thread has run again. *)
          (match m.m_protocol with
          | Inherit_protocol ->
              (* -1 with no waiter, below every priority *)
              let p = Wait_queue.highest_prio m.m_waiters in
              if o.prio < p then
                report
                  (Printf.sprintf
                     "inheritance discipline violated: %s holds %s at prio \
                      %d while a waiter has prio %d"
                     o.tname m.m_name o.prio p)
          | Ceiling_protocol ->
              if o.prio < m.m_ceiling then
                report
                  (Printf.sprintf
                     "ceiling discipline violated: %s holds %s at prio %d \
                      below ceiling %d"
                     o.tname m.m_name o.prio m.m_ceiling)
          | No_protocol -> ())
        end
    | _ -> ());
    Wait_queue.iter m.m_waiters (fun w ->
        match w.state with
        | Blocked (On_mutex m') when m' == m -> ()
        | _ ->
            report
              (Printf.sprintf "%s is queued on %s but is %s" w.tname m.m_name
                 (state_name w.state)));
    if final && m.m_locked then
      report
        (m.m_name ^ " still locked at process exit"
        ^ match owner m with Some o -> " (owner " ^ o.tname ^ ")" | None -> "")
  in
  let check_cond c =
    let bound = c.c_mutex != nil_mutex in
    if bound && Wait_queue.is_empty c.c_waiters then
      report (c.c_name ^ " is bound to a mutex but has no waiters")
    else if (not bound) && not (Wait_queue.is_empty c.c_waiters) then
      report (c.c_name ^ " has waiters but no bound mutex");
    Wait_queue.iter c.c_waiters (fun w ->
        match w.state with
        | Blocked (On_cond c') when c' == c -> ()
        | _ ->
            report
              (Printf.sprintf "%s is queued on %s but is %s" w.tname c.c_name
                 (state_name w.state)))
  in
  let check_thread t =
    if t.prio < min_prio || t.prio > max_prio then
      report (Printf.sprintf "%s has out-of-range prio %d" t.tname t.prio);
    List.iter
      (fun m ->
        (match owner m with
        | Some o when o == t -> ()
        | _ ->
            report
              (Printf.sprintf "%s lists %s as held but is not its owner"
                 t.tname m.m_name));
        if not m.m_locked then
          report (m.m_name ^ " is in an owned list but not locked"))
      (owned_list t)
  in
  Engine.iter_mutexes eng check_mutex;
  Engine.iter_conds eng check_cond;
  Engine.iter_threads eng check_thread;
  !bad

let check eng = find_violation eng ~final:false
let check_final eng = find_violation eng ~final:true
