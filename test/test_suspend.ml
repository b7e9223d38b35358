(* Thread suspension (pthread_suspend_np / pthread_resume_np). *)

open Tu
open Pthreads

let test_suspend_ready_thread () =
  ignore
    (run_main (fun proc ->
         let progressed = ref 0 in
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () ->
               for _ = 1 to 10 do
                 Pthread.busy proc ~ns:5_000;
                 incr progressed
               done)
         in
         (* t is ready but has never run *)
         Pthread.suspend proc t;
         check (Alcotest.option string) "state" (Some "suspended")
           (Pthread.state_of proc t);
         Pthread.delay proc ~ns:200_000;
         check int "made no progress while suspended" 0 !progressed;
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check int "completed after resume" 10 !progressed;
         0));
  ()

let test_suspend_running_via_preemption () =
  ignore
    (run_main (fun proc ->
         let progressed = ref 0 in
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () ->
               for _ = 1 to 30 do
                 Pthread.busy proc ~ns:5_000;
                 incr progressed
               done)
         in
         Pthread.delay proc ~ns:100_000;
         (* t has run a while; main (higher prio) suspends it mid-loop *)
         Pthread.suspend proc t;
         let snapshot = !progressed in
         check bool "partially done" true (snapshot > 0 && snapshot < 30);
         Pthread.delay proc ~ns:200_000;
         check int "frozen" snapshot !progressed;
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check int "finished" 30 !progressed;
         0));
  ()

let test_self_suspend () =
  ignore
    (run_main (fun proc ->
         let woke = ref false in
         let t =
           Pthread.create_unit proc (fun () ->
               Pthread.suspend proc (Pthread.self proc);
               woke := true)
         in
         Pthread.delay proc ~ns:100_000;
         check bool "parked itself" false !woke;
         check (Alcotest.option string) "state" (Some "suspended")
           (Pthread.state_of proc t);
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check bool "continued after resume" true !woke;
         0));
  ()

let test_suspend_blocked_parks_on_wake () =
  ignore
    (run_main (fun proc ->
         let woke = ref false in
         let t =
           Pthread.create_unit proc (fun () ->
               Pthread.delay proc ~ns:100_000;
               woke := true)
         in
         Pthread.yield proc;
         (* t is sleeping; the suspension takes effect when the sleep ends *)
         Pthread.suspend proc t;
         check bool "flag set" true (Pthread.is_suspended proc t);
         Pthread.delay proc ~ns:300_000;
         check bool "slept out but parked" false !woke;
         check (Alcotest.option string) "parked" (Some "suspended")
           (Pthread.state_of proc t);
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check bool "completed" true !woke;
         0));
  ()

let test_timed_wait_outcome_preserved_across_suspension () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let result = ref Cond.Signaled in
         let t =
           Pthread.create proc (fun () ->
               Mutex.lock proc m;
               result :=
                 Cond.wait_until proc c m ~deadline_ns:(Pthread.now proc + 100_000);
               Mutex.unlock proc m;
               0)
         in
         Pthread.yield proc;
         Pthread.suspend proc t;
         (* the deadline passes while suspended; the timeout outcome must
            survive the park/resume cycle *)
         Pthread.delay proc ~ns:300_000;
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check bool "timed out" true (!result = Cond.Timed_out);
         0));
  ()

let test_resume_non_suspended_noop () =
  ignore
    (run_main (fun proc ->
         let t = Pthread.create_unit proc (fun () -> Pthread.yield proc) in
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         Pthread.resume proc 999;
         0));
  ()

let test_suspend_unknown_raises () =
  ignore
    (run_main (fun proc ->
         (try
            Pthread.suspend proc 999;
            Alcotest.fail "must raise"
          with Types.Error (Errno.ESRCH, _) -> ());
         0));
  ()

let test_signals_pend_across_suspension () =
  ignore
    (run_main (fun proc ->
         let hits = ref 0 in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              { h_mask = Sigset.empty; h_fn = (fun ~signo:_ ~code:_ -> incr hits) });
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () -> Pthread.busy proc ~ns:100_000)
         in
         Pthread.suspend proc t;
         Signal_api.kill proc t Sigset.sigusr1;
         Pthread.delay proc ~ns:50_000;
         check int "handler deferred while suspended" 0 !hits;
         Pthread.resume proc t;
         ignore (Pthread.join proc t);
         check int "handler ran on resume" 1 !hits;
         0));
  ()

let test_cancel_pends_across_suspension () =
  ignore
    (run_main (fun proc ->
         let t =
           Pthread.create proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () ->
               ignore (Cancel.set_type proc Types.Cancel_asynchronous);
               Pthread.busy proc ~ns:10_000_000;
               0)
         in
         Pthread.delay proc ~ns:20_000;
         Pthread.suspend proc t;
         Cancel.cancel proc t;
         Pthread.delay proc ~ns:50_000;
         check (Alcotest.option string) "still parked" (Some "suspended")
           (Pthread.state_of proc t);
         Pthread.resume proc t;
         check exit_status "died on resume" Types.Canceled (Pthread.join proc t);
         0));
  ()

let test_deadlock_when_never_resumed () =
  match
    Pthread.run (fun proc ->
        let t = Pthread.create_unit proc (fun () -> Pthread.busy proc ~ns:50_000) in
        Pthread.suspend proc t;
        ignore (Pthread.join proc t);
        0)
  with
  | exception Types.Process_stopped (Types.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected deadlock"

let suite =
  [
    ( "suspend",
      [
        tc "suspend ready thread" test_suspend_ready_thread;
        tc "suspend running thread" test_suspend_running_via_preemption;
        tc "self-suspend" test_self_suspend;
        tc "blocked target parks on wake" test_suspend_blocked_parks_on_wake;
        tc "timed-wait outcome preserved" test_timed_wait_outcome_preserved_across_suspension;
        tc "resume non-suspended no-op" test_resume_non_suspended_noop;
        tc "suspend unknown raises" test_suspend_unknown_raises;
        tc "signals pend across suspension" test_signals_pend_across_suspension;
        tc "cancel pends across suspension" test_cancel_pends_across_suspension;
        tc "deadlock when never resumed" test_deadlock_when_never_resumed;
      ] );
  ]
