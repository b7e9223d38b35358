(* Condition variables: wakeup order, atomicity, timeouts, interruption. *)

open Tu
open Pthreads

let test_signal_wakes_one () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let woken = ref 0 in
         let waiter () =
           Mutex.lock proc m;
           ignore (Cond.wait proc c m);
           incr woken;
           Mutex.unlock proc m
         in
         let t1 = Pthread.create_unit proc waiter in
         let t2 = Pthread.create_unit proc waiter in
         Pthread.delay proc ~ns:100_000;
         check int "two waiting" 2 (Cond.waiter_count c);
         Cond.signal proc c;
         Pthread.delay proc ~ns:100_000;
         check int "exactly one woke" 1 !woken;
         Cond.signal proc c;
         List.iter (fun t -> ignore (Pthread.join proc t)) [ t1; t2 ];
         check int "both eventually" 2 !woken;
         0));
  ()

let test_signal_empty_noop () =
  ignore
    (run_main (fun proc ->
         let c = Cond.create proc () in
         Cond.signal proc c;
         Cond.broadcast proc c;
         0));
  ()

let test_broadcast () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let woken = ref 0 in
         let ts =
           List.init 5 (fun _ ->
               Pthread.create_unit proc (fun () ->
                   Mutex.lock proc m;
                   ignore (Cond.wait proc c m);
                   incr woken;
                   Mutex.unlock proc m))
         in
         Pthread.delay proc ~ns:100_000;
         Cond.broadcast proc c;
         List.iter (fun t -> ignore (Pthread.join proc t)) ts;
         check int "all woken" 5 !woken;
         0));
  ()

let test_priority_wakeup_order () =
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
         let ts = [ waiter "lo" 2; waiter "hi" 28; waiter "mid" 15 ] in
         Pthread.delay proc ~ns:100_000;
         for _ = 1 to 3 do
           Cond.signal proc c;
           Pthread.delay proc ~ns:50_000
         done;
         List.iter (fun t -> ignore (Pthread.join proc t)) ts;
         check (Alcotest.list string) "highest first" [ "hi"; "mid"; "lo" ]
           (List.rev !order);
         0));
  ()

let test_wait_requires_mutex () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         (try
            ignore (Cond.wait proc c m);
            Alcotest.fail "wait without mutex must raise"
          with Types.Error (Errno.EPERM, _) -> ());
         0));
  ()

let test_binding_to_second_mutex_rejected () =
  ignore
    (run_main (fun proc ->
         let m1 = Mutex.create proc ~name:"m1" () in
         let m2 = Mutex.create proc ~name:"m2" () in
         let c = Cond.create proc () in
         ignore
           (Pthread.create_unit proc (fun () ->
                Mutex.lock proc m1;
                ignore (Cond.wait proc c m1);
                Mutex.unlock proc m1));
         Pthread.delay proc ~ns:50_000;
         Mutex.lock proc m2;
         (try
            ignore (Cond.wait proc c m2);
            Alcotest.fail "second mutex must raise"
          with Types.Error (Errno.EINVAL, _) -> ());
         Mutex.unlock proc m2;
         Cond.signal proc c;
         0));
  ()

let test_mutex_released_during_wait () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let saw_unlocked = ref false in
         ignore
           (Pthread.create_unit proc (fun () ->
                Mutex.lock proc m;
                ignore (Cond.wait proc c m);
                Mutex.unlock proc m));
         Pthread.delay proc ~ns:50_000;
         (* waiter suspended: the mutex must have been released atomically *)
         saw_unlocked := not (Mutex.is_locked m);
         Cond.signal proc c;
         check bool "mutex free while waiting" true !saw_unlocked;
         0));
  ()

let test_mutex_reacquired_on_return () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let ok = ref false in
         let t =
           Pthread.create_unit proc (fun () ->
               Mutex.lock proc m;
               ignore (Cond.wait proc c m);
               ok := Mutex.owner_tid m = Some (Pthread.self proc);
               Mutex.unlock proc m)
         in
         Pthread.delay proc ~ns:50_000;
         Cond.signal proc c;
         ignore (Pthread.join proc t);
         check bool "owns mutex after wait" true !ok;
         0));
  ()

let test_timed_wait_times_out () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         Mutex.lock proc m;
         let t0 = Pthread.now proc in
         let r = Cond.wait_until proc c m ~deadline_ns:(t0 + 500_000) in
         check bool "timed out" true (r = Cond.Timed_out);
         check bool "deadline respected" true (Pthread.now proc >= t0 + 500_000);
         check bool "mutex reacquired" true
           (Mutex.owner_tid m = Some (Pthread.self proc));
         Mutex.unlock proc m;
         0));
  ()

let test_timed_wait_signaled_in_time () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let r = ref Cond.Timed_out in
         let t =
           Pthread.create_unit proc (fun () ->
               Mutex.lock proc m;
               r := Cond.wait_until proc c m
                   ~deadline_ns:(Pthread.now proc + 5_000_000);
               Mutex.unlock proc m)
         in
         Pthread.delay proc ~ns:100_000;
         Cond.signal proc c;
         ignore (Pthread.join proc t);
         check bool "signaled" true (!r = Cond.Signaled);
         0));
  ()

(* A timed wait that ends early (signaled, not timed out) must disarm its
   one-shot kernel timer.  Observable directly in the kernel's armed-timer
   count, which the stats snapshot now exposes. *)
let test_timed_wait_signaled_disarms_timer () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let before = (Engine.stats proc).Engine.timers_armed in
         let t =
           Pthread.create_unit proc (fun () ->
               Mutex.lock proc m;
               ignore
                 (Cond.wait_until proc c m
                    ~deadline_ns:(Pthread.now proc + 5_000_000)
                   : Cond.wait_result);
               Mutex.unlock proc m)
         in
         Pthread.delay proc ~ns:100_000;
         Cond.signal proc c;
         ignore (Pthread.join proc t);
         check int "no timer left armed by the signaled timed wait" before
           (Engine.stats proc).Engine.timers_armed;
         0));
  ()

(* The behavioral consequence of a leaked one-shot: when the stale alarm
   finally fires, the thread has moved on to an untimed wait with no
   deadline, so the alarm rule delivers a spurious [Interrupted] wakeup
   there.  The second wait below must see the real signal. *)
let test_no_stale_alarm_hits_later_wait () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let c2 = Cond.create proc () in
         let second = ref None in
         let t =
           Pthread.create_unit proc (fun () ->
               Mutex.lock proc m;
               ignore
                 (Cond.wait_until proc c m
                    ~deadline_ns:(Pthread.now proc + 1_000_000)
                   : Cond.wait_result);
               second := Some (Cond.wait proc c2 m);
               Mutex.unlock proc m)
         in
         Pthread.delay proc ~ns:100_000;
         Cond.signal proc c;
         (* run far past the first wait's deadline before releasing it *)
         Pthread.delay proc ~ns:3_000_000;
         Cond.signal proc c2;
         ignore (Pthread.join proc t);
         check bool "second wait saw the signal, not a stale alarm" true
           (!second = Some Cond.Signaled);
         0));
  ()

let test_handler_interrupts_wait () =
  (* The wrapper reacquires the mutex and terminates the conditional wait;
     the woken thread must re-test its predicate (spurious wakeup). *)
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let events = ref [] in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn =
                  (fun ~signo:_ ~code:_ ->
                    (* the mutex is reacquired before the handler runs *)
                    events :=
                      (if Mutex.owner_tid m <> None then `Handler_with_mutex
                       else `Handler_without_mutex)
                      :: !events);
              });
         let t =
           Pthread.create proc (fun () ->
               Mutex.lock proc m;
               let r = Cond.wait proc c m in
               events := `Woke :: !events;
               Mutex.unlock proc m;
               match r with Cond.Interrupted -> 1 | _ -> 0)
         in
         Pthread.delay proc ~ns:50_000;
         Signal_api.kill proc t Sigset.sigusr1;
         (match Pthread.join proc t with
         | Types.Exited 1 -> ()
         | st -> Alcotest.failf "expected Interrupted, got %a" Types.pp_exit_status st);
         check bool "handler ran holding the mutex" true
           (List.mem `Handler_with_mutex !events);
         0));
  ()

let test_many_producers_consumers () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let nonempty = Cond.create proc () in
         let q = Queue.create () in
         let produced = 40 and consumed = ref 0 in
         let producers =
           List.init 4 (fun i ->
               Pthread.create_unit proc (fun () ->
                   for j = 1 to 10 do
                     Mutex.lock proc m;
                     Queue.push ((i * 10) + j) q;
                     Cond.signal proc nonempty;
                     Mutex.unlock proc m;
                     Pthread.busy proc ~ns:2_000
                   done))
         in
         let consumers =
           List.init 2 (fun _ ->
               Pthread.create_unit proc (fun () ->
                   for _ = 1 to 20 do
                     Mutex.lock proc m;
                     while Queue.is_empty q do
                       ignore (Cond.wait proc nonempty m)
                     done;
                     ignore (Queue.pop q);
                     incr consumed;
                     Mutex.unlock proc m
                   done))
         in
         List.iter
           (fun t -> ignore (Pthread.join proc t))
           (producers @ consumers);
         check int "all consumed" produced !consumed;
         0));
  ()

let suite =
  [
    ( "cond",
      [
        tc "signal wakes one" test_signal_wakes_one;
        tc "signal on empty" test_signal_empty_noop;
        tc "broadcast" test_broadcast;
        tc "priority wakeup order" test_priority_wakeup_order;
        tc "wait requires mutex" test_wait_requires_mutex;
        tc "second mutex rejected" test_binding_to_second_mutex_rejected;
        tc "mutex released during wait" test_mutex_released_during_wait;
        tc "mutex reacquired on return" test_mutex_reacquired_on_return;
        tc "timed wait: timeout" test_timed_wait_times_out;
        tc "timed wait: signaled" test_timed_wait_signaled_in_time;
        tc "timed wait: timer disarmed" test_timed_wait_signaled_disarms_timer;
        tc "no stale alarm on later wait" test_no_stale_alarm_hits_later_wait;
        tc "handler interrupts wait" test_handler_interrupts_wait;
        tc "producers/consumers" test_many_producers_consumers;
      ] );
  ]
