(* The engine probe: one subscriber list for every observer.  Runs nobody
   observes must pay nothing for it, subscribers must see events in the
   order they registered, removing one subscriber must leave the others
   firing, and a Machine process must idle through its backend's wait. *)

open Tu
open Pthreads

(* Minor words allocated per call of the operation [setup proc] returns,
   over [n] calls inside a thread of an unobserved process.  [setup]
   builds whatever the operation works on (a mutex, a cond) outside the
   measured window. *)
let words_per_op ?(n = 10_000) setup =
  let r = ref nan in
  ignore
    (Pthread.run (fun proc ->
         let op = setup proc in
         op ();
         (* warm-up call above; measure the steady state *)
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           op ()
         done;
         r := (Gc.minor_words () -. w0) /. float_of_int n;
         0));
  !r

let words_per_call ?n f = words_per_op ?n (fun proc () -> f proc)

let test_unobserved_emitters_allocate_nothing () =
  let key = Engine.key_mutex 1 in
  let cases =
    [
      ("touch", fun proc -> Engine.touch proc key);
      ("touch_rw", fun proc -> Engine.touch_rw proc key ~write:true);
      ("san_acquire", fun proc -> Engine.san_acquire proc key ~name:"m" ~excl:true);
      ("san_release", fun proc -> Engine.san_release proc key);
      ("san_publish", fun proc -> Engine.san_publish proc key);
      ("san_merge", fun proc -> Engine.san_merge proc key);
      ("san_join", fun proc -> Engine.san_join proc 1);
      ("trace (disabled)", fun proc -> Engine.trace proc (Engine.current proc) Vm.Trace.Ready);
      ( "enter_kernel/leave_kernel",
        fun proc ->
          Engine.enter_kernel proc;
          Engine.leave_kernel proc );
    ]
  in
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      (* the two Gc.minor_words readings box a float each: a few words
         over 10^4 calls *)
      if w > 0.01 then Alcotest.failf "%s allocates %.2f words/call" name w)
    cases

(* Minor words per round of a two-thread cond ping-pong, measured from
   one player while the other keeps pace. *)
let cond_pingpong_words n =
  let r = ref nan in
  ignore
    (Pthread.run (fun proc ->
         let m = Mutex.create proc () and c = Cond.create proc () in
         let turn = ref 0 in
         let player me rounds =
           for _ = 1 to rounds do
             Mutex.lock proc m;
             while !turn <> me do
               ignore (Cond.wait proc c m : Cond.wait_result)
             done;
             turn := 1 - me;
             Cond.signal proc c;
             Mutex.unlock proc m
           done
         in
         let warm = 100 in
         let partner = Pthread.create_unit proc (fun () -> player 1 (warm + n)) in
         player 0 warm;
         let w0 = Gc.minor_words () in
         player 0 n;
         r := (Gc.minor_words () -. w0) /. float_of_int n;
         ignore (Pthread.join proc partner);
         0));
  !r

(* The steady-state hot path of an unobserved engine: what one request
   costs in [sharded_serving] is a handful of these.  Kernel entry, the
   checkpoint poll and the uncontended lock and signal paths allocate
   nothing; a timed sleep and a blocking cond handoff pay only for what
   outlives the call (the timer, the sleep-heap entry, the suspended
   continuation) under a fixed ceiling. *)
let test_hot_path_budgets () =
  let mask_noop proc =
    let k = proc.Types.vm in
    ignore (Vm.Unix_kernel.sigsetmask k (Vm.Unix_kernel.proc_mask k) : Vm.Sigset.t)
  in
  let lock_unlock proc =
    let m = Mutex.create proc () in
    fun () ->
      Mutex.lock proc m;
      Mutex.unlock proc m
  in
  let signal_nobody proc =
    let c = Cond.create proc () in
    fun () -> Cond.signal proc c
  in
  let over = ref [] in
  let budget name limit w =
    Printf.printf "%s: %.2f words/call (budget %.2f)\n" name w limit;
    if w > limit then over := name :: !over
  in
  (* 0.01: the two Gc.minor_words readings box a float each *)
  budget "Pthread.checkpoint" 0.01 (words_per_call Pthread.checkpoint);
  budget "Unix_kernel.sigsetmask" 0.01 (words_per_call mask_noop);
  budget "Mutex.lock/unlock (uncontended)" 0.01 (words_per_op lock_unlock);
  budget "Cond.signal (no waiter)" 0.01 (words_per_op signal_nobody);
  budget "Pthread.delay" 24. (words_per_call ~n:2_000 (fun proc -> Pthread.delay proc ~ns:1_000));
  budget "cond ping-pong round" 16. (cond_pingpong_words 2_000);
  if !over <> [] then
    Alcotest.failf "over budget: %s" (String.concat ", " (List.rev !over))

(* Run [f proc lst port] on the unix backend while [k] connections to
   listener [lst] each have a reader blocked in [Net.read] throughout (two
   descriptors each: k = 1,000 needs a descriptor limit above 2,000). *)
let with_idle_readers ~k f =
  ignore
    (Pthreads.run ~backend:(Pthreads.unix_backend ~forward_signals:[] ())
       (fun proc ->
         let lst = Net.listen proc ~port:0 () in
         let port = Net.port proc lst in
         let idle =
           List.init k (fun _ ->
               let c = Net.connect proc ~port in
               let s = Net.accept proc lst in
               let reader =
                 Pthread.create_unit proc (fun () ->
                     ignore (Net.read proc s (Bytes.create 1) ~pos:0 ~len:1))
               in
               (c, s, reader))
         in
         Pthread.yield proc (* each reader runs and blocks *);
         f proc lst port;
         (* closing a connection wakes its reader with end of stream *)
         List.iter
           (fun (c, s, reader) ->
             Net.close proc s;
             ignore (Pthread.join proc reader);
             Net.close proc c)
           idle;
         Net.close_listener proc lst;
         0))

(* Minor words and host ns per 64-byte round trip between a client and
   an echo thread through [Net] beside [k] idle readers, measured from
   the client over [n] trips after 100 warm-up trips. *)
let unix_round_trip ~k ~n =
  let words = ref nan and ns = ref 0 in
  with_idle_readers ~k (fun proc lst port ->
      let client = Net.connect proc ~port in
      let server = Net.accept proc lst in
      let echo =
        Pthread.create_unit proc (fun () ->
            let buf = Bytes.create 64 and m = ref 1 in
            while !m > 0 do
              m := Net.read proc server buf ~pos:0 ~len:64;
              Net.write_all proc server buf ~pos:0 ~len:!m
            done)
      in
      let buf = Bytes.make 64 'x' in
      let trip () =
        Net.write_all proc client buf ~pos:0 ~len:64;
        let got = ref 0 in
        while !got < 64 do
          got := !got + Net.read proc client buf ~pos:!got ~len:(64 - !got)
        done
      in
      for _ = 1 to 100 do
        trip ()
      done;
      let w0 = Gc.minor_words () and t0 = Vm.Real_clock.now_ns () in
      for _ = 1 to n do
        trip ()
      done;
      ns := (Vm.Real_clock.now_ns () - t0) / n;
      words := (Gc.minor_words () -. w0) /. float_of_int n;
      Net.close proc client;
      ignore (Pthread.join proc echo);
      Net.close proc server);
  (!words, !ns)

(* Host ns per uncontended Mutex.lock/unlock pair beside [k] idle
   readers, over [n] pairs after 10,000 warm-up pairs. *)
let unix_lock_pair ~k ~n =
  let ns = ref 0 in
  with_idle_readers ~k (fun proc _ _ ->
      let m = Mutex.create proc () in
      let pairs n =
        for _ = 1 to n do
          Mutex.lock proc m;
          Mutex.unlock proc m
        done
      in
      pairs 10_000;
      let t0 = Vm.Real_clock.now_ns () in
      pairs n;
      ns := (Vm.Real_clock.now_ns () - t0) / n);
  !ns

(* Readiness costs the same beside 1,000 idle connections as beside none:
   each socket is registered once, so a round trip neither walks nor
   rebuilds anything per idle connection, and a would-block answer is an
   int, not an exception. *)
let test_unix_round_trip_words () =
  List.iter
    (fun k ->
      let w, _ = unix_round_trip ~k ~n:2_000 in
      Printf.printf "K = %d: %.2f words/round trip (budget 16)\n" k w;
      if w > 16.01 then
        Alcotest.failf "K = %d: %.2f words per unix round trip, over 16" k w)
    [ 0; 1_000 ]

(* Medians of the host ns [at_none ()] and [at_busy ()] take, over five
   alternating passes. *)
let median_pair at_none at_busy =
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let passes =
    List.init 5 (fun _ ->
        let none = at_none () in
        (none, at_busy ()))
  in
  (median (List.map fst passes), median (List.map snd passes))

let test_unix_round_trip_flat () =
  let none, busy =
    median_pair
      (fun () -> snd (unix_round_trip ~k:0 ~n:1_000))
      (fun () -> snd (unix_round_trip ~k:1_000 ~n:1_000))
  in
  Printf.printf "round trip: %.1f us at K = 0, %.1f us at K = 1000\n"
    (float_of_int none /. 1e3) (float_of_int busy /. 1e3);
  if float_of_int busy > 1.5 *. float_of_int none then
    Alcotest.failf "K = 1000 round trip %.1f us, over 1.5x the K = 0 %.1f us"
      (float_of_int busy /. 1e3) (float_of_int none /. 1e3)

(* Checkpoints stay cheap while a socket slot is filled: beside idle
   sockets the pump polls at a spacing set by an empty poll's own cost,
   not at every checkpoint (which more than doubled the pair's time beside
   one idle reader). *)
let test_unix_lock_pair_flat () =
  let none, busy =
    median_pair
      (fun () -> unix_lock_pair ~k:0 ~n:100_000)
      (fun () -> unix_lock_pair ~k:1 ~n:100_000)
  in
  Printf.printf "lock/unlock pair: %d ns beside no reader, %d ns beside one\n"
    none busy;
  if float_of_int busy > 1.5 *. float_of_int none then
    Alcotest.failf "lock/unlock pair %d ns beside an idle reader, over 1.5x %d ns"
      busy none

(* Minor words per dispatch while four threads each pass [point] in a
   loop, measured from main over 20,000 of its points in the steady
   state.  [chooser], when given, is installed over whatever
   [perverted] put in the slot. *)
let words_per_dispatch ?perverted ?chooser point =
  let r = ref nan in
  let eng =
    Pthread.make_proc ?perverted (fun proc ->
        let run n () =
          for _ = 1 to n do
            point proc
          done
        in
        let others =
          List.init 3 (fun _ -> Pthread.create_unit proc (run 25_000))
        in
        run 1_000 ();
        let w0 = Gc.minor_words () and d0 = proc.Types.n_dispatches in
        run 20_000 ();
        let d = proc.Types.n_dispatches - d0 in
        r := (Gc.minor_words () -. w0) /. float_of_int d;
        List.iter (fun t -> ignore (Pthread.join proc t)) others;
        0)
  in
  Option.iter (fun c -> Engine.set_chooser eng (Some c)) chooser;
  Pthread.start eng;
  !r

(* A scheduling decision through the chooser slot costs no more than a
   plain dispatch: the ready set reaches the chooser through a reusable
   array, not a list built per pick.  The baseline is a [yield] with no
   chooser installed (the suspended continuation is all it allocates). *)
let test_chooser_budgets () =
  let open Types in
  let first_ready =
    {
      ch_requeue = (fun point _ -> if point = At_mutex_acquired then -1 else min_prio);
      ch_pick =
        (fun eng ->
          if Engine.ready_view eng = 0 then nil_tcb else Engine.ready_at eng 0);
    }
  in
  let baseline = words_per_dispatch Pthread.yield in
  let cases =
    [
      ("trivial chooser", baseline, words_per_dispatch ~chooser:first_ready Pthread.checkpoint);
      ( "Rr_ordered_switch",
        baseline,
        words_per_dispatch ~perverted:Rr_ordered_switch Pthread.checkpoint );
      (* the seeded generator boxes its int64 state on every draw *)
      ( "Random_switch",
        24.,
        words_per_dispatch ~perverted:Random_switch Pthread.checkpoint );
    ]
  in
  Printf.printf "yield, no chooser: %.2f words/dispatch\n" baseline;
  List.iter
    (fun (name, limit, w) ->
      Printf.printf "%s: %.2f words/dispatch (budget %.2f)\n" name w limit;
      (* 0.01: the two Gc.minor_words readings box a float each *)
      if w > limit +. 0.01 then
        Alcotest.failf "%s allocates %.2f words/dispatch, over %.2f" name w limit)
    cases

let test_subscribers_see_registration_order () =
  let log = ref [] in
  let proc =
    Pthread.make_proc (fun proc ->
        let m = Mutex.create proc () in
        let t =
          Pthread.create_unit proc (fun () ->
              Mutex.lock proc m;
              Mutex.unlock proc m)
        in
        Mutex.lock proc m;
        Pthread.yield proc;
        Mutex.unlock proc m;
        ignore (Pthread.join proc t);
        0)
  in
  let sub id (_ : Types.probe) = log := id :: !log in
  let second = sub 2 in
  List.iter (Engine.subscribe proc) [ sub 1; second; sub 3 ];
  Engine.unsubscribe proc second;
  Engine.subscribe proc (sub 4);
  Pthread.start proc;
  let ids = List.rev !log in
  let rec rounds = function
    | 1 :: 3 :: 4 :: rest -> rounds rest
    | [] -> true
    | _ -> false
  in
  check bool "saw events" true (List.length ids >= 30);
  check bool "every event reaches 1, 3, 4 in that order; 2 is gone" true
    (rounds ids)

(* [Fault.Soak] attaches a sanitizer and a fault injector to the same
   engine; detaching the sanitizer must not silence the injector. *)
let test_detach_keeps_other_subscribers () =
  let eng =
    Pthread.make_proc (fun proc ->
        let ts =
          List.init 2 (fun _ ->
              Pthread.create_unit proc (fun () ->
                  for _ = 1 to 5 do
                    Pthread.yield proc
                  done))
        in
        List.iter (fun t -> ignore (Pthread.join proc t)) ts;
        0)
  in
  let mon = Sanitize.Monitor.attach eng in
  let inj =
    Fault.Inject.install eng
      [ { Fault.Plan.at = 3; act = Fault.Plan.Preempt } ]
  in
  Sanitize.Monitor.detach mon;
  Pthread.start eng;
  check bool "injector still counts decision points" true
    (Fault.Inject.points inj > 3);
  check int "planned preemption applied" 1 (Fault.Inject.injected inj)

(* A Machine process idles through its backend's wait seam: the machine
   still advances the shared clock for a sleeper, and a process that can
   never wake is the machine's deadlock to report, not the process's. *)
let test_machine_idles_through_backend () =
  let m = Machine.create () in
  let woke_at = ref 0 in
  ignore
    (Machine.spawn m ~name:"sleeper" (fun proc ->
         Pthread.delay proc ~ns:1_000_000;
         woke_at := Pthread.now proc;
         0));
  ignore
    (Machine.spawn m ~name:"stuck" (fun proc ->
         let mu = Mutex.create proc () and c = Cond.create proc () in
         Mutex.lock proc mu;
         ignore (Cond.wait proc c mu : Cond.wait_result);
         0));
  (match Machine.run m with
  | exception Machine.Machine_deadlock msg ->
      check bool "names the stuck process" true
        (Test_explore.contains msg "stuck")
  | _ -> Alcotest.fail "expected Machine_deadlock");
  check bool "the sleeper woke on the shared clock" true
    (!woke_at >= 1_000_000);
  check bool "the shared clock advanced" true
    (Vm.Clock.now (Machine.clock m) >= 1_000_000)

(* An idle unix engine blocks until the last 200 us before a deadline and
   then spins its idle loop until the deadline, so a pass of that loop
   must not allocate: the boxed deadline is reused while it is unchanged.
   A loop that boxed it on every pass allocated 700-1,100 words per 1 ms
   delay. *)
let test_unix_delay_idle_words () =
  let n = 50 and words = ref nan in
  ignore
    (Pthreads.run ~backend:(Pthreads.unix_backend ~forward_signals:[] ())
       (fun proc ->
         Pthread.delay proc ~ns:1_000_000;
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           Pthread.delay proc ~ns:1_000_000
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n;
         0));
  Printf.printf "unix 1 ms delay: %.1f words/delay (budget 100)\n" !words;
  check bool
    (Printf.sprintf "a 1 ms delay allocates %.1f words, under 100" !words)
    true (!words < 100.)

let suite =
  [
    ( "probe",
      [
        tc "unobserved emitters allocate nothing"
          test_unobserved_emitters_allocate_nothing;
        tc "hot path allocation budgets" test_hot_path_budgets;
        tc "chooser decision allocation budgets" test_chooser_budgets;
        tc "unix round trip: 16 words at 0 and 1,000 idle connections"
          test_unix_round_trip_words;
        tc "unix round trip: 1,000 idle connections cost under 1.5x"
          test_unix_round_trip_flat;
        tc "unix lock/unlock: an idle reader costs under 1.5x"
          test_unix_lock_pair_flat;
        tc "subscribers in registration order"
          test_subscribers_see_registration_order;
        tc "sanitizer detach keeps the injector" test_detach_keeps_other_subscribers;
        tc "machine idles through the backend" test_machine_idles_through_backend;
        tc "unix: a 1 ms delay allocates under 100 minor words"
          test_unix_delay_idle_words;
      ] );
  ]
