open Vm
open Types

type violation = { at_ns : int; rule : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%0.1fus] %s: %s" (Clock.us_of_ns v.at_ns) v.rule v.detail

type monitor = {
  eng : engine;
  mutable found : violation list;
  mutable checks : int;
}

let report mon rule detail =
  mon.found <-
    { at_ns = Unix_kernel.now mon.eng.vm; rule; detail } :: mon.found

let check_dispatch mon t =
  let eng = mon.eng in
  mon.checks <- mon.checks + 1;
  (* Switch hooks fire before the dispatch commits: the incoming thread
     must still be ready (it becomes running only after every hook has had
     the chance to veto), and the kernel flag must already be clear — the
     dispatcher drops it before suspending the outgoing fiber. *)
  if t.state <> Ready then
    report mon "state" (t.tname ^ " dispatched while " ^ state_name t.state);
  if eng.kernel_flag then
    report mon "monitor" "kernel flag held across a context switch";
  (* a chooser (a perverted policy, the explorer) deliberately dispatches
     out of priority order *)
  let p = Wait_queue.highest_prio eng.ready in
  if p > t.prio && not (Engine.has_chooser eng) then
    report mon "priority"
      (Printf.sprintf "%s (prio %d) dispatched while a ready thread has %d"
         t.tname t.prio p);
  (* mutex record consistency for every thread's held mutexes *)
  Engine.iter_threads eng (fun th ->
      List.iter
        (fun m ->
          (match owner m with
          | Some o when o == th -> ()
          | _ ->
              report mon "ownership"
                (Printf.sprintf "%s lists %s as held but is not its owner"
                   th.tname m.m_name));
          if not m.m_locked then
            report mon "ownership" (m.m_name ^ " is owned but not locked");
          Wait_queue.iter m.m_waiters (fun w ->
              match w.state with
              | Blocked (On_mutex mw) when mw == m -> ()
              | _ ->
                  report mon "waiters"
                    (Printf.sprintf "%s queued on %s but in state %s" w.tname
                       m.m_name (state_name w.state))))
        (owned_list th))

let install eng =
  let mon = { eng; found = []; checks = 0 } in
  Engine.subscribe eng (function
    | Switch_in t -> check_dispatch mon t
    | _ -> ());
  mon

let violations mon = List.rev mon.found
let checks_performed mon = mon.checks

(* ---------------- trace auditor ---------------- *)

let audit_trace events =
  let found = ref [] in
  let report at_ns rule detail = found := { at_ns; rule; detail } :: !found in
  (* running set *)
  let running : (int, string) Hashtbl.t = Hashtbl.create 8 in
  (* per-mutex holder: name -> (tid, since) *)
  let held : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let step (e : Trace.event) =
    match e.Trace.kind with
    | Trace.Dispatch_in ->
        if Hashtbl.mem running e.tid then
          report e.t_ns "alternation" (e.tname ^ " dispatched twice in a row");
        if Hashtbl.length running > 0 then
          report e.t_ns "uniprocessor"
            (e.tname ^ " dispatched while another thread is running");
        Hashtbl.replace running e.tid e.tname
    | Trace.Dispatch_out ->
        if not (Hashtbl.mem running e.tid) then
          report e.t_ns "alternation" (e.tname ^ " switched out but was not in");
        Hashtbl.remove running e.tid
    | Trace.Mutex_lock m ->
        (match Hashtbl.find_opt held m with
        | Some (other, _) when other <> e.tid ->
            report e.t_ns "mutual-exclusion"
              (Printf.sprintf "%s acquired %s while tid %d holds it" e.tname m
                 other)
        | _ -> ());
        Hashtbl.replace held m (e.tid, e.t_ns)
    | Trace.Mutex_unlock m -> (
        match Hashtbl.find_opt held m with
        | Some (tid, _) when tid = e.tid -> Hashtbl.remove held m
        | Some (tid, _) ->
            report e.t_ns "balance"
              (Printf.sprintf "%s released %s held by tid %d" e.tname m tid)
        | None ->
            report e.t_ns "balance" (e.tname ^ " released unheld " ^ m))
    | Trace.Thread_exit ->
        (* a terminating thread is switched out implicitly *)
        Hashtbl.remove running e.tid
    | _ -> ()
  in
  List.iter step events;
  List.rev !found
