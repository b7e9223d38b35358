(* The language-independent (handle + status code) interface. *)

open Tu
open Pthreads

let st = Alcotest.int

let test_mutex_roundtrip () =
  ignore
    (run_main (fun proc ->
         let s, m = Flat.mutex_init proc () in
         check st "init" Flat.ok s;
         check st "lock" Flat.ok (Flat.mutex_lock proc m);
         check st "unlock" Flat.ok (Flat.mutex_unlock proc m);
         check st "destroy" Flat.ok (Flat.mutex_destroy proc m);
         0));
  ()

let test_mutex_error_codes () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         check st "bad handle" Flat.einval (Flat.mutex_lock proc 999);
         check st "unlock unowned" Flat.eperm (Flat.mutex_unlock proc m);
         ignore (Flat.mutex_lock proc m);
         check st "relock" Flat.edeadlk (Flat.mutex_lock proc m);
         check st "trylock busy... by self" Flat.edeadlk
           (Flat.mutex_trylock proc m);
         check st "destroy while locked" Flat.ebusy (Flat.mutex_destroy proc m);
         ignore (Flat.mutex_unlock proc m);
         check st "destroy" Flat.ok (Flat.mutex_destroy proc m);
         check st "use after destroy" Flat.einval (Flat.mutex_lock proc m);
         0));
  ()

let test_trylock_contended () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         ignore (Flat.mutex_lock proc m);
         let t =
           Pthread.create proc (fun () -> Flat.mutex_trylock proc m)
         in
         (match Pthread.join proc t with
         | Types.Exited s -> check st "EBUSY" Flat.ebusy s
         | _ -> Alcotest.fail "join");
         ignore (Flat.mutex_unlock proc m);
         0));
  ()

let test_ceiling_validation () =
  ignore
    (run_main (fun proc ->
         let s, _ = Flat.mutex_init proc ~protocol:(`Ceiling 99) () in
         check st "bad ceiling" Flat.einval s;
         let s, m = Flat.mutex_init proc ~protocol:(`Ceiling 20) () in
         check st "good ceiling" Flat.ok s;
         check st "lock" Flat.ok (Flat.mutex_lock proc m);
         check int "boosted" 20 (Pthread.get_priority proc (Pthread.self proc));
         ignore (Flat.mutex_unlock proc m);
         0));
  ()

let test_cond_roundtrip () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         let s, c = Flat.cond_init proc () in
         check st "init" Flat.ok s;
         let t =
           Pthread.create proc (fun () ->
               ignore (Flat.mutex_lock proc m);
               let s = Flat.cond_wait proc c m in
               ignore (Flat.mutex_unlock proc m);
               s)
         in
         Pthread.delay proc ~ns:50_000;
         check st "destroy busy" Flat.ebusy (Flat.cond_destroy proc c);
         check st "signal" Flat.ok (Flat.cond_signal proc c);
         (match Pthread.join proc t with
         | Types.Exited s -> check st "wait ok" Flat.ok s
         | _ -> Alcotest.fail "join");
         check st "destroy" Flat.ok (Flat.cond_destroy proc c);
         0));
  ()

let test_cond_broadcast () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         let _, c = Flat.cond_init proc () in
         let waiter () =
           ignore (Flat.mutex_lock proc m);
           let s = Flat.cond_wait proc c m in
           ignore (Flat.mutex_unlock proc m);
           s
         in
         let ts = List.init 3 (fun _ -> Pthread.create proc waiter) in
         Pthread.delay proc ~ns:50_000;
         check st "broadcast" Flat.ok (Flat.cond_broadcast proc c);
         List.iter
           (fun t ->
             match Pthread.join proc t with
             | Types.Exited s -> check st "every waiter woke" Flat.ok s
             | _ -> Alcotest.fail "join")
           ts;
         check st "bad cond" Flat.einval (Flat.cond_broadcast proc 999);
         0));
  ()

let test_cond_errors () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         let _, c = Flat.cond_init proc () in
         check st "wait without mutex held" Flat.eperm (Flat.cond_wait proc c m);
         check st "bad cond" Flat.einval (Flat.cond_signal proc 999);
         check st "bad mutex" Flat.einval (Flat.cond_wait proc c 999);
         0));
  ()

let test_cond_timedwait_codes () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         let _, c = Flat.cond_init proc () in
         ignore (Flat.mutex_lock proc m);
         let s =
           Flat.cond_timedwait proc c m ~deadline_ns:(Pthread.now proc + 100_000)
         in
         check st "ETIMEDOUT" Flat.etimedout s;
         ignore (Flat.mutex_unlock proc m);
         0));
  ()

let test_thread_codes () =
  ignore
    (run_main (fun proc ->
         let s, t = Flat.thr_create proc (fun () -> 42) in
         check st "create" Flat.ok s;
         let s, v = Flat.thr_join proc t in
         check st "join" Flat.ok s;
         check int "value" 42 v;
         let s, _ = Flat.thr_join proc t in
         check st "join again: ESRCH" Flat.esrch s;
         let s, _ = Flat.thr_join proc (Flat.thr_self proc) in
         check st "self-join: EDEADLK" Flat.edeadlk s;
         check st "detach unknown" Flat.esrch (Flat.thr_detach proc 999);
         check st "cancel unknown" Flat.esrch (Flat.thr_cancel proc 999);
         check st "setprio bad" Flat.einval
           (Flat.thr_setprio proc (Flat.thr_self proc) 99);
         check st "setprio ok" Flat.ok
           (Flat.thr_setprio proc (Flat.thr_self proc) 9);
         let s, _ = Flat.thr_create proc ~prio:99 (fun () -> 0) in
         check st "create bad prio" Flat.einval s;
         0));
  ()

let test_join_detached_einval () =
  ignore
    (run_main (fun proc ->
         let s, t = Flat.thr_create proc (fun () -> Pthread.delay proc ~ns:100_000; 0) in
         check st "create" Flat.ok s;
         check st "detach" Flat.ok (Flat.thr_detach proc t);
         let s, _ = Flat.thr_join proc t in
         check st "join detached: EINVAL" Flat.einval s;
         Pthread.delay proc ~ns:300_000;
         0));
  ()

let test_cancel_through_flat () =
  ignore
    (run_main (fun proc ->
         let _, t =
           Flat.thr_create proc (fun () ->
               Pthread.delay proc ~ns:10_000_000;
               5)
         in
         Pthread.yield proc;
         check st "cancel" Flat.ok (Flat.thr_cancel proc t);
         let s, v = Flat.thr_join proc t in
         check st "join canceled" Flat.ok s;
         check int "canceled yields -1" (-1) v;
         0));
  ()

let test_strstatus () =
  check string "OK" "OK" (Flat.strstatus Flat.ok);
  check string "EBUSY" "EBUSY" (Flat.strstatus Flat.ebusy);
  check string "EDEADLK" "EDEADLK" (Flat.strstatus Flat.edeadlk)

let suite =
  [
    ( "flat",
      [
        tc "mutex roundtrip" test_mutex_roundtrip;
        tc "mutex error codes" test_mutex_error_codes;
        tc "trylock contended" test_trylock_contended;
        tc "ceiling validation" test_ceiling_validation;
        tc "cond roundtrip" test_cond_roundtrip;
        tc "cond broadcast wakes every waiter" test_cond_broadcast;
        tc "cond errors" test_cond_errors;
        tc "cond timedwait" test_cond_timedwait_codes;
        tc "thread codes" test_thread_codes;
        tc "join detached" test_join_detached_einval;
        tc "cancel through flat" test_cancel_through_flat;
        tc "strstatus" test_strstatus;
      ] );
  ]
