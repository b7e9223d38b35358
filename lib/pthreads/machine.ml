open Vm
open Types

type proc_result = Completed of exit_status option | Stopped of stop_reason

(* Effect performed by a process's engine (through its backend's [wait])
   when none of its threads is ready: yields the processor to the
   machine, reporting the process's next event time. *)
type _ Effect.t += Proc_idle : int option -> unit Effect.t

type pstate =
  | Not_started
  | Runnable of (unit, unit) Effect.Deep.continuation
  | Idle of int option * (unit, unit) Effect.Deep.continuation
  | Done of proc_result

type mproc = {
  mp_name : string;
  mp_eng : engine;
  mp_body : unit -> unit;  (** runs the engine's scheduler *)
  mutable mp_state : pstate;
  mutable mp_waiters : (engine * tcb) list;
      (** threads blocked in [wait_child] on this process *)
}

type t = {
  m_clock : Clock.t;
  m_profile : Cost_model.profile;
  mutable procs_rev : mproc list;  (** newest first; see [procs] *)
}

(* Creation order, reversed on read (tiny list; O(1) registration). *)
let procs m = List.rev m.procs_rev

exception Machine_deadlock of string

let create ?(profile = Cost_model.sparc_ipx) () =
  { m_clock = Clock.create (); m_profile = profile; procs_rev = [] }

let clock m = m.m_clock

(* The virtual backend on the shared clock, except that an idle process
   yields to the machine (which advances the clock once every process is
   stalled) instead of advancing the clock itself, then retries. *)
let machine_backend m =
  let b = Backend.virtual_ ~clock:m.m_clock m.m_profile in
  {
    b with
    Backend.wait =
      (fun ~deadline_ns ->
        Effect.perform (Proc_idle deadline_ns);
        true);
  }

let make_mproc m ?policy ?perverted ?seed ?main_prio ~name f =
  let eng =
    Pthread.make_proc ~backend:(machine_backend m) ?policy ?perverted ?seed
      ?main_prio f
  in
  let body () = Engine.run_scheduler eng in
  let p =
    { mp_name = name; mp_eng = eng; mp_body = body; mp_state = Not_started;
      mp_waiters = [] }
  in
  m.procs_rev <- p :: m.procs_rev;
  p

let spawn m ?policy ?perverted ?seed ?main_prio ~name f =
  (make_mproc m ?policy ?perverted ?seed ?main_prio ~name f).mp_eng

(* Run one step of a process: start its fiber or continue it; it returns
   when the process finishes or idles. *)
let finish p result =
  p.mp_state <- Done result;
  (* release any thread (in any process) blocked in wait_child *)
  List.iter (fun (eng, t) -> Engine.unblock eng t Wake_normal) p.mp_waiters;
  p.mp_waiters <- []

let step p =
  match p.mp_state with
  | Not_started ->
      Effect.Deep.match_with
        (fun () ->
          match p.mp_body () with
          | () -> finish p (Completed (Pthread.main_status p.mp_eng))
          | exception Process_stopped r -> finish p (Stopped r))
        ()
        {
          retc = (fun () -> ());
          exnc = (fun e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Proc_idle next ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      p.mp_state <- Idle (next, k))
              | _ -> None);
        }
  | Runnable k ->
      p.mp_state <- Not_started (* placeholder; fiber will set it *);
      Effect.Deep.continue k ()
  | Idle _ | Done _ -> ()

(* Monotone progress metric: every thread resumption in any process. *)
let total_dispatches m =
  List.fold_left (fun acc p -> acc + p.mp_eng.n_dispatches) 0 (procs m)

let run m =
  let last_switches = ref (-1) in
  let rec loop () =
    (* run every startable/runnable process *)
    let ran = ref false in
    List.iter
      (fun p ->
        match p.mp_state with
        | Not_started | Runnable _ ->
            ran := true;
            step p
        | Idle _ | Done _ -> ())
      (procs m);
    if !ran then loop ()
    else begin
      let idle = List.filter (fun p -> match p.mp_state with Idle _ -> true | _ -> false) (procs m) in
      if idle = [] then () (* all done *)
      else begin
        let wake_all () =
          List.iter
            (fun p ->
              match p.mp_state with
              | Idle (_, k) -> p.mp_state <- Runnable k
              | _ -> ())
            (procs m)
        in
        let switches = total_dispatches m in
        if switches <> !last_switches then begin
          (* some process made progress since the last stall: give every
             idle process a chance to notice cross-process wakeups *)
          last_switches := switches;
          wake_all ();
          loop ()
        end
        else begin
          (* genuine stall: advance the shared clock to the earliest
             pending event, if any *)
          let next =
            List.fold_left
              (fun acc p ->
                match p.mp_state with
                | Idle (Some t, _) -> (
                    match acc with Some a -> Some (min a t) | None -> Some t)
                | _ -> acc)
              None idle
          in
          match next with
          | Some t_ns when t_ns > Clock.now m.m_clock ->
              Clock.advance_to m.m_clock t_ns;
              last_switches := -1;
              wake_all ();
              loop ()
          | Some _ ->
              (* events are due now but nothing progressed: let everyone
                 re-poll once; if still stalled we will land in the None
                 branch next time because switch counts are stable *)
              last_switches := -2;
              wake_all ();
              loop ()
          | None ->
              let desc =
                String.concat "; "
                  (List.map
                     (fun p ->
                       Printf.sprintf "%s: %s" p.mp_name
                         (String.concat ", "
                            (List.map
                               (fun t -> Format.asprintf "%a" Tcb.pp t)
                               (List.filter Tcb.is_live
                                  (Engine.thread_list p.mp_eng)))))
                     idle)
              in
              raise (Machine_deadlock desc)
        end
      end
    end
  in
  loop ();
  List.map
    (fun p ->
      match p.mp_state with
      | Done r -> (p.mp_name, r)
      | Not_started | Runnable _ | Idle _ ->
          (p.mp_name, Stopped (Deadlock "machine stopped early")))
    (procs m)

(* ------------------------------------------------------------------ *)
(* Process control (the paper: "the support is currently being extended
   to include process control")                                          *)
(* ------------------------------------------------------------------ *)

type child = mproc

let spawn_child m ?policy ?perverted ?seed ?main_prio _parent ~name f =
  make_mproc m ?policy ?perverted ?seed ?main_prio ~name f

let wait_child _m parent child =
  Engine.checkpoint parent;
  Engine.test_cancel parent;
  let self = Engine.current parent in
  let rec wait () =
    match child.mp_state with
    | Done r -> r
    | Not_started | Runnable _ | Idle _ ->
        Engine.enter_kernel parent;
        child.mp_waiters <- (parent, self) :: child.mp_waiters;
        self.state <- Blocked (On_shared ("proc:" ^ child.mp_name));
        let (_ : wake) = Engine.block parent in
        Engine.drain_fake_calls parent;
        Engine.test_cancel parent;
        wait ()
  in
  wait ()

let child_name c = c.mp_name

let child_proc c = c.mp_eng

let kill_process _m sender target signo =
  (* a real kill(2): a trap in the sender, an external signal in the
     target's kernel *)
  Vm.Unix_kernel.trap sender.vm Kill;
  Vm.Unix_kernel.post_signal target.vm signo ~origin:Vm.Unix_kernel.External ();
  Engine.checkpoint sender
