open Vm
open Types

let check_signo s =
  if not (Sigset.is_valid s) then invalid_arg "invalid signal number";
  if s = Sigset.sigcancel then
    invalid_arg "SIGCANCEL is internal to the library"

let set_action eng s action =
  check_signo s;
  Engine.charge eng Costs.sigmask_op;
  eng.actions.(s) <- action;
  (* a newly installed handler may make process-pended signals deliverable *)
  Engine.enter_kernel eng;
  Engine.recheck_proc_pending eng;
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let get_action eng s =
  check_signo s;
  eng.actions.(s)

let kill eng tid s =
  check_signo s;
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  Engine.send_signal eng s ~code:0 ~origin:(Unix_kernel.Directed tid);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let raise_sync eng ?(code = 0) s =
  check_signo s;
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  Engine.send_signal eng s ~code
    ~origin:(Unix_kernel.Sync (Engine.current eng).tid);
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let send_to_process eng s =
  check_signo s;
  Engine.post_external eng s ();
  Engine.checkpoint eng

let sigwait eng set =
  Engine.checkpoint eng;
  Engine.test_cancel eng;
  let self = Engine.current eng in
  Engine.enter_kernel eng;
  Engine.charge eng Costs.sigwait_op;
  let take_from get put =
    match List.find_opt (fun p -> Sigset.mem set p.p_signo) (get ()) with
    | Some p ->
        put (List.filter (fun x -> x != p) (get ()));
        Some p.p_signo
    | None -> None
  in
  let already =
    match
      take_from (fun () -> self.thr_pending) (fun l -> self.thr_pending <- l)
    with
    | Some s -> Some s
    | None ->
        take_from (fun () -> eng.proc_pending) (fun l -> eng.proc_pending <- l)
  in
  match already with
  | Some s ->
      Engine.leave_kernel eng;
      Engine.drain_fake_calls eng;
      s
  | None ->
      let rec wait () =
        self.sigwait_set <- set;
        self.sigwait_result <- None;
        self.state <- Blocked (On_sigwait set);
        let (_ : wake) = Engine.block eng in
        Engine.drain_fake_calls eng;
        Engine.test_cancel eng;
        match self.sigwait_result with
        | Some s ->
            self.sigwait_result <- None;
            s
        | None ->
            Engine.enter_kernel eng;
            wait ()
      in
      wait ()

let set_mask eng how set =
  Engine.checkpoint eng;
  let self = Engine.current eng in
  Engine.charge eng Costs.sigmask_op;
  let old = self.sigmask in
  let requested =
    match how with
    | `Block -> Sigset.union old set
    | `Unblock -> Sigset.diff old set
    | `Set -> set
  in
  self.sigmask <- Sigset.inter requested Sigset.all_maskable;
  Engine.enter_kernel eng;
  Engine.recheck_thread_pending eng self;
  Engine.recheck_proc_pending eng;
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng;
  old

let mask eng = (Engine.current eng).sigmask

let thread_pending eng =
  List.fold_left
    (fun acc p -> Sigset.add acc p.p_signo)
    Sigset.empty (Engine.current eng).thr_pending

let process_pending eng =
  List.fold_left
    (fun acc p -> Sigset.add acc p.p_signo)
    Sigset.empty eng.proc_pending

let set_timer eng ~after_ns ?(interval_ns = 0) () =
  let self = Engine.current eng in
  Unix_kernel.arm_timer eng.vm ~after_ns ~interval_ns ~signo:Sigset.sigalrm
    ~origin:(Unix_kernel.Timer self.tid)

let cancel_timer eng tm = Unix_kernel.disarm_timer eng.vm tm

let aio_submit eng ~latency_ns =
  let self = Engine.current eng in
  Unix_kernel.submit_io eng.vm ~latency_ns ~requester:self.tid

let aio_read eng ~latency_ns =
  (* block SIGIO so the completion pends rather than running a handler;
     SIGIO is only a doorbell, so poll the completion state in a loop *)
  let old = set_mask eng `Block (Sigset.singleton Sigset.sigio) in
  let self = Engine.current eng in
  aio_submit eng ~latency_ns;
  while not (Unix_kernel.take_io_completion eng.vm ~requester:self.tid) do
    ignore (sigwait eng (Sigset.singleton Sigset.sigio) : int)
  done;
  ignore (set_mask eng `Set old : Sigset.t)

let blocking_read eng ~latency_ns =
  Engine.checkpoint eng;
  (try Unix_kernel.blocking_read eng.vm ~latency_ns
   with Unix_kernel.Trap_fault (name, errno) ->
     (* the injected failure surfaces exactly as UNIX would report it:
        errno set, EINTR raised to the caller *)
     (Engine.current eng).errno <- errno;
     let e = Option.value ~default:Errno.EINTR (Errno.of_int errno) in
     raise (Error (e, name ^ ": interrupted by injected fault")));
  Engine.checkpoint eng
