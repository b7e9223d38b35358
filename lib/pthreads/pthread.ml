open Vm
open Types

type proc = engine
type t = int

(* ------------------------------------------------------------------ *)
(* Process construction                                                *)
(* ------------------------------------------------------------------ *)

let config ?backend ?profile ?(policy = Fifo) ?(perverted = No_perversion)
    ?(seed = 42) ?(use_pool = true) ?(trace = false) ?(main_prio = default_prio)
    ?(ceiling_mode = Stack_pop) () =
  let profile =
    (* a backend owns its kernel: default the config's profile to it so
       cost accounting matches (free-running on the Unix backend) *)
    match (profile, backend) with
    | Some p, _ -> p
    | None, Some b -> Unix_kernel.profile b.Backend.kernel
    | None, None -> Cost_model.sparc_ipx
  in
  {
    profile;
    policy;
    perverted;
    seed;
    use_pool;
    pool_prealloc = 16;
    trace_enabled = trace;
    main_prio;
    ceiling_mode;
  }

let make_proc ?clock ?backend ?profile ?policy ?perverted ?seed ?use_pool
    ?trace ?main_prio ?ceiling_mode f =
  let cfg =
    config ?backend ?profile ?policy ?perverted ?seed ?use_pool ?trace
      ?main_prio ?ceiling_mode ()
  in
  (* The main body needs the engine that is about to be created. *)
  let eng_ref = ref None in
  let main () =
    match !eng_ref with Some eng -> f eng | None -> assert false
  in
  let eng = Engine.make ?clock ?backend ~main cfg in
  eng_ref := Some eng;
  eng

let start eng = Engine.run_scheduler eng

let main_status eng =
  match Engine.find_thread eng 0 with Some t -> t.retval | None -> None

let run ?backend ?profile ?policy ?perverted ?seed ?use_pool ?trace ?main_prio
    ?ceiling_mode f =
  let finish () =
    match backend with Some b -> b.Backend.shutdown () | None -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      let eng =
        make_proc ?backend ?profile ?policy ?perverted ?seed ?use_pool ?trace
          ?main_prio ?ceiling_mode f
      in
      start eng;
      (main_status eng, Engine.stats eng))

(* ------------------------------------------------------------------ *)
(* Thread management                                                   *)
(* ------------------------------------------------------------------ *)

let create_in_kernel eng attr body =
  let tid = Engine.fresh_tid eng in
  let name =
    match attr.Attr.name with
    | Some n -> n
    | None -> "thread-" ^ string_of_int tid
  in
  let t =
    Tcb.make ~tid ~name ~prio:attr.Attr.prio ~detached:attr.Attr.detached
      ~body ~deferred:attr.Attr.deferred
  in
  t.sched_override <- attr.Attr.sched;
  Engine.register_thread eng t;
  tid

let create eng ?(attr = Attr.default) body =
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  let tid = create_in_kernel eng attr body in
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng;
  tid

let create_unit eng ?attr body =
  create eng ?attr (fun () ->
      body ();
      0)

let activate eng tid =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_thread tid);
  Engine.enter_kernel eng;
  (match Engine.find_thread eng tid with
  | Some t when t.state = Blocked On_start -> Engine.unblock eng t Wake_normal
  | Some _ | None -> ());
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

(* Entered and left in the kernel.  Top-level, not a local closure. *)
let rec wait_for_exit eng self t =
  if t.state <> Terminated then begin
    self.state <- Blocked (On_join t);
    Wait_queue.push_head t.joiners self;
    let (_ : wake) = Engine.block eng in
    Engine.drain_fake_calls eng;
    Engine.test_cancel eng;
    Engine.enter_kernel eng;
    wait_for_exit eng self t
  end

let join eng tid =
  Engine.checkpoint eng;
  Engine.test_cancel eng;
  Engine.touch eng (Engine.key_thread tid);
  let self = Engine.current eng in
  match Engine.find_thread eng tid with
  | None -> raise (Error (Errno.ESRCH, "Pthread.join: no such thread (already joined?)"))
  | Some t when t == self -> raise (Error (Errno.EDEADLK, "Pthread.join: cannot join self"))
  | Some t when t.detached -> raise (Error (Errno.EINVAL, "Pthread.join: thread is detached"))
  | Some t ->
      Engine.enter_kernel eng;
      (* a lazily created thread is "needed" now: activate it *)
      if t.state = Blocked On_start then Engine.unblock eng t Wake_normal;
      wait_for_exit eng self t;
      (* in the kernel; reap *)
      if not (Engine.is_registered eng t) then begin
        Engine.leave_kernel eng;
        raise (Error (Errno.ESRCH, "Pthread.join: thread was joined concurrently"))
      end
      else begin
        let status =
          match t.retval with Some s -> s | None -> assert false
        in
        Engine.san_join eng t.tid;
        Engine.reap_thread eng t;
        Engine.leave_kernel eng;
        Engine.drain_fake_calls eng;
        status
      end

let detach eng tid =
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  (match Engine.find_thread eng tid with
  | None -> ()
  | Some t when t.state = Terminated -> Engine.reap_thread eng t
  | Some t -> t.detached <- true);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let exit _eng code = raise (Thread_exit_exn (Exited code))

let suspend eng tid =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_thread tid);
  Engine.enter_kernel eng;
  match Engine.find_thread eng tid with
  | None ->
      Engine.leave_kernel eng;
      raise (Error (Errno.ESRCH, "Pthread.suspend: no such thread"))
  | Some t when t.state = Terminated -> Engine.leave_kernel eng
  | Some t ->
      t.suspended <- true;
      let self = Engine.current eng in
      if t == self then begin
        t.state <- Blocked On_suspend;
        let (_ : wake) = Engine.block eng in
        Engine.drain_fake_calls eng
      end
      else begin
        (match t.state with
        | Ready ->
            Wait_queue.remove eng.ready t;
            t.state <- Blocked On_suspend
        | Running | Blocked _ | Terminated ->
            (* a blocked thread parks when its wait completes *)
            ());
        Engine.leave_kernel eng;
        Engine.drain_fake_calls eng
      end

let resume eng tid =
  Engine.checkpoint eng;
  Engine.touch eng (Engine.key_thread tid);
  Engine.enter_kernel eng;
  (match Engine.find_thread eng tid with
  | Some t when t.suspended ->
      t.suspended <- false;
      if t.state = Blocked On_suspend then
        (* re-deliver the wake reason saved when the thread was parked *)
        Engine.unblock eng t t.pending_wake
  | Some _ | None -> ());
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let is_suspended eng tid =
  match Engine.find_thread eng tid with
  | Some t -> t.suspended
  | None -> false

let self eng = (Engine.current eng).tid

let equal (a : t) (b : t) = a = b

let name_of eng tid =
  Option.map (fun t -> t.tname) (Engine.find_thread eng tid)

let state_of eng tid =
  Option.map (fun t -> state_name t.state) (Engine.find_thread eng tid)

type once_control = { mutable once_done : bool }

let once_init () = { once_done = false }

let once eng ctl f =
  Engine.charge eng Costs.once_op;
  if not ctl.once_done then begin
    (* the flag is flipped inside the kernel so a handler running between
       test and set cannot run the initializer twice *)
    Engine.enter_kernel eng;
    let mine = not ctl.once_done in
    ctl.once_done <- true;
    Engine.leave_kernel eng;
    if mine then f ()
  end

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let yield eng = Engine.yield eng

let set_priority eng tid prio =
  if prio < min_prio || prio > max_prio then
    raise (Error (Errno.EINVAL, "Pthread.set_priority: out of range"));
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  (match Engine.find_thread eng tid with
  | None -> ()
  | Some t ->
      t.base_prio <- prio;
      let effective =
        (* a protocol boost cannot be lowered from outside *)
        if t.owned == nil_mutex && t.boost_stack = [] then prio else max t.prio prio
      in
      Engine.set_effective_prio eng t effective ~at_head:false);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let get_priority eng tid =
  match Engine.find_thread eng tid with
  | Some t -> t.prio
  | None -> raise (Error (Errno.ESRCH, "Pthread.get_priority: no such thread"))

let get_base_priority eng tid =
  match Engine.find_thread eng tid with
  | Some t -> t.base_prio
  | None -> raise (Error (Errno.ESRCH, "Pthread.get_base_priority: no such thread"))

(* Top-level, not a local closure: a delay captures nothing. *)
let rec sleep_until eng self deadline =
  if Engine.now eng < deadline then begin
    Engine.enter_kernel eng;
    self.state <- Blocked On_sleep;
    Engine.set_wait_deadline eng self ~deadline;
    let (_ : wake) = Engine.block eng in
    Engine.drain_fake_calls eng;
    Engine.test_cancel eng;
    sleep_until eng self deadline
  end

let delay eng ~ns =
  Engine.checkpoint eng;
  Engine.test_cancel eng;
  if ns > 0 then begin
    let self = Engine.current eng in
    let deadline = Engine.now eng + ns in
    let timer =
      Unix_kernel.arm_timer eng.vm ~after_ns:ns ~interval_ns:0
        ~signo:Sigset.sigalrm
        ~origin:(Unix_kernel.Timer self.tid)
    in
    (* On a normal return the deadline has passed and the one-shot alarm
       has fired; unwinding early (cancellation, a handler's longjmp)
       would leak it against whatever this thread blocks on next. *)
    try sleep_until eng self deadline
    with e ->
      Unix_kernel.disarm_timer eng.vm timer;
      raise e
  end

let busy eng ~ns = Engine.busy eng ~ns

let checkpoint eng = Engine.checkpoint eng

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let now eng = Engine.now eng
let stats eng = Engine.stats eng
let reset_stats eng = Engine.reset_stats eng
let trace_events eng = Trace.events eng.trace
let gantt eng ~bucket_ns = Trace.gantt eng.trace ~bucket_ns

let thread_count eng = eng.live_count
