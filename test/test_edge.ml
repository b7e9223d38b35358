(* Edge cases and error conditions across the API surface. *)

open Tu
open Pthreads

let test_timed_wait_past_deadline () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         Mutex.lock proc m;
         let r = Cond.wait_until proc c m ~deadline_ns:(Pthread.now proc - 1) in
         check bool "immediate timeout" true (r = Cond.Timed_out);
         Mutex.unlock proc m;
         0));
  ()

let test_zero_delay_and_busy () =
  ignore
    (run_main (fun proc ->
         Pthread.delay proc ~ns:0;
         Pthread.busy proc ~ns:0;
         0));
  ()

let test_mask_cannot_block_sigkill () =
  ignore
    (run_main (fun proc ->
         ignore (Signal_api.set_mask proc `Set Sigset.full);
         check bool "SIGKILL stays unmasked" false
           (Sigset.mem (Signal_api.mask proc) Sigset.sigkill);
         0));
  ()

let test_handler_exception_fails_thread () =
  ignore
    (run_main (fun proc ->
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> failwith "handler bug");
              });
         let t =
           Pthread.create proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () ->
               Pthread.busy proc ~ns:100_000;
               0)
         in
         Signal_api.kill proc t Sigset.sigusr1;
         (match Pthread.join proc t with
         | Types.Failed _ -> ()
         | st ->
             Alcotest.failf "expected failure from handler, got %a"
               Types.pp_exit_status st);
         0));
  ()

let test_kill_invalid_signo () =
  ignore
    (run_main (fun proc ->
         (try
            Signal_api.kill proc (Pthread.self proc) 0;
            Alcotest.fail "signo 0 must raise"
          with Invalid_argument _ -> ());
         (try
            Signal_api.kill proc (Pthread.self proc) 99;
            Alcotest.fail "signo 99 must raise"
          with Invalid_argument _ -> ());
         0));
  ()

let test_attr_validation () =
  (try
     ignore (Attr.with_prio 99 Attr.default);
     Alcotest.fail "prio out of range"
   with Invalid_argument _ -> ());
  (try
     ignore (Attr.with_stack 0 Attr.default);
     Alcotest.fail "zero stack"
   with Invalid_argument _ -> ());
  let a =
    Attr.with_name "x" (Attr.with_stack 4096 (Attr.with_detached true Attr.default))
  in
  check bool "builders compose" true
    (a.Attr.detached && a.Attr.stack_bytes = 4096 && a.Attr.name = Some "x")

let test_get_priority_unknown () =
  ignore
    (run_main (fun proc ->
         (try
            ignore (Pthread.get_priority proc 999);
            Alcotest.fail "must raise"
          with Types.Error (Errno.ESRCH, _) -> ());
         0));
  ()

let test_set_priority_same_value () =
  ignore
    (run_main (fun proc ->
         Pthread.set_priority proc (Pthread.self proc) Types.default_prio;
         check int "unchanged" Types.default_prio
           (Pthread.get_priority proc (Pthread.self proc));
         0));
  ()

let test_sigwait_multiple_pended () =
  ignore
    (run_main (fun proc ->
         let both = Sigset.of_list [ Sigset.sigusr1; Sigset.sigusr2 ] in
         ignore (Signal_api.set_mask proc `Block both);
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr2;
         let first = Signal_api.sigwait proc both in
         check bool "one of the two" true
           (first = Sigset.sigusr1 || first = Sigset.sigusr2);
         let second = Signal_api.sigwait proc both in
         check bool "the other is preserved" true
           (second <> first
           && (second = Sigset.sigusr1 || second = Sigset.sigusr2));
         0));
  ()

let test_deadlock_message_names_threads () =
  match
    Pthread.run (fun proc ->
        let m = Mutex.create proc () in
        Mutex.lock proc m;
        let t =
          Pthread.create_unit proc
            ~attr:(Attr.with_name "stuck-worker" Attr.default)
            (fun () ->
              Mutex.lock proc m;
              Mutex.unlock proc m)
        in
        (* main exits while holding m; worker waits forever... except main
           joining it deadlocks first *)
        ignore (Pthread.join proc t);
        0)
  with
  | exception Types.Process_stopped (Types.Deadlock msg) ->
      let contains sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      check bool "message names the stuck thread" true (contains "stuck-worker")
  | _ -> Alcotest.fail "expected deadlock"

let test_lost_signal_counted () =
  let stats =
    run_stats (fun proc ->
        Signal_api.set_action proc Sigset.sigusr1 Types.Sig_ignore;
        (* two posts, no checkpoint in between: BSD drops the second *)
        Engine.post_external proc Sigset.sigusr1 ();
        Engine.post_external proc Sigset.sigusr1 ();
        Pthread.checkpoint proc;
        0)
  in
  check int "one lost" 1 stats.Engine.signals_lost

let test_detached_thread_not_joinable_after_exit () =
  ignore
    (run_main (fun proc ->
         let t =
           Pthread.create proc
             ~attr:(Attr.with_detached true Attr.default)
             (fun () -> 0)
         in
         Pthread.yield proc;
         (* reclaimed at termination: the tid is gone *)
         check bool "no state" true (Pthread.state_of proc t = None);
         0));
  ()

let test_many_threads () =
  ignore
    (run_main (fun proc ->
         let n = 100 in
         let counter = ref 0 in
         let ts =
           List.init n (fun _ -> Pthread.create_unit proc (fun () -> incr counter))
         in
         List.iter (fun t -> ignore (Pthread.join proc t)) ts;
         check int "all ran" n !counter;
         0));
  ()

let test_deep_mutex_nesting () =
  ignore
    (run_main (fun proc ->
         let ms = List.init 20 (fun i -> Mutex.create proc ~name:(string_of_int i) ()) in
         List.iter (fun m -> Mutex.lock proc m) ms;
         List.iter (fun m -> Mutex.unlock proc m) (List.rev ms);
         0));
  ()

let test_cond_broadcast_priority_order () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let order = ref [] in
         let waiter name prio =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio prio (Attr.with_name name Attr.default))
             (fun () ->
               Mutex.lock proc m;
               ignore (Cond.wait proc c m);
               order := name :: !order;
               Mutex.unlock proc m)
         in
         let ts = [ waiter "lo" 2; waiter "hi" 25; waiter "mid" 10 ] in
         Pthread.delay proc ~ns:100_000;
         Cond.broadcast proc c;
         List.iter (fun t -> ignore (Pthread.join proc t)) ts;
         check (Alcotest.list string) "released in priority order"
           [ "hi"; "mid"; "lo" ] (List.rev !order);
         0));
  ()

let test_gantt_empty_trace () =
  let t = Vm.Trace.create () in
  check string "placeholder" "(empty trace)" (Vm.Trace.gantt t ~bucket_ns:1000)

let test_two_procs_isolated () =
  (* two simulated processes do not share anything *)
  let r1 =
    run_main (fun proc ->
        let m = Mutex.create proc () in
        Mutex.lock proc m;
        let r2 =
          run_main (fun proc2 ->
              (* a different process: its own clock, threads, mutexes *)
              check int "fresh tid space" 0 (Pthread.self proc2);
              7)
        in
        Mutex.unlock proc m;
        r2)
  in
  check int "nested run result" 7 r1

let test_stats_thread_created_counter () =
  let stats =
    run_stats (fun proc ->
        let ts = List.init 5 (fun _ -> Pthread.create proc (fun () -> 0)) in
        List.iter (fun t -> ignore (Pthread.join proc t)) ts;
        0)
  in
  check int "created counted" 5 stats.Engine.threads_created

let suite =
  [
    ( "edge",
      [
        tc "timed wait past deadline" test_timed_wait_past_deadline;
        tc "zero delay/busy" test_zero_delay_and_busy;
        tc "SIGKILL unmaskable" test_mask_cannot_block_sigkill;
        tc "handler exception fails thread" test_handler_exception_fails_thread;
        tc "invalid signo" test_kill_invalid_signo;
        tc "attr validation" test_attr_validation;
        tc "get_priority unknown" test_get_priority_unknown;
        tc "set_priority same" test_set_priority_same_value;
        tc "sigwait multiple pended" test_sigwait_multiple_pended;
        tc "deadlock message" test_deadlock_message_names_threads;
        tc "lost signal counted" test_lost_signal_counted;
        tc "detached reclaimed" test_detached_thread_not_joinable_after_exit;
        tc "100 threads" test_many_threads;
        tc "deep nesting" test_deep_mutex_nesting;
        tc "broadcast priority order" test_cond_broadcast_priority_order;
        tc "gantt empty" test_gantt_empty_trace;
        tc "two procs isolated" test_two_procs_isolated;
        tc "created counter" test_stats_thread_created_counter;
      ] );
  ]
