(* The layer ladder: host nanoseconds per primitive for the paper's
   Table 2 operations plus the cross-domain ones, each timed in batches on
   the public API.  A row is the median over [batches] batches of the
   batch's host time divided by its operation count, after one unmeasured
   warm-up batch. *)

open Perfbench
open Pthreads

let batches = 7

(* [body proc n] performs [n] operations inside a fresh virtual-backend
   process and returns the host ns they took. *)
let in_proc body n =
  let ns = ref 0 in
  ignore
    (Pthreads.run ~backend:(Vm.Backend.virtual_ Vm.Cost_model.free) (fun proc ->
         ns := body proc n;
         0));
  !ns

let time f =
  let t0 = Clock.now_ns () in
  f ();
  Clock.now_ns () - t0

let row ?(per = 1.0) ~n run =
  ignore (run n);
  let xs =
    List.init batches (fun _ -> float_of_int (run n) /. float_of_int n /. per)
  in
  Samples.median_float xs

let mutex_uncontended proc n =
  let m = Mutex.create proc () in
  time (fun () ->
      for _ = 1 to n do
        Mutex.lock proc m;
        Mutex.unlock proc m
      done)

(* Two threads each lock, yield while holding, unlock: after the first
   round every acquisition finds the mutex held and is handed it on the
   holder's unlock.  [n] counts acquisitions over both threads. *)
let mutex_handoff proc n =
  let m = Mutex.create proc () in
  let worker () =
    for _ = 1 to n / 2 do
      Mutex.lock proc m;
      Pthread.yield proc;
      Mutex.unlock proc m
    done
  in
  time (fun () ->
      let a = Pthread.create_unit proc worker in
      let b = Pthread.create_unit proc worker in
      ignore (Pthread.join proc a);
      ignore (Pthread.join proc b))

(* One op = one signal/wait handoff between two threads taking turns. *)
let cond_pingpong proc n =
  let m = Mutex.create proc () in
  let c = Cond.create proc () in
  let turn = ref 0 in
  let player me =
    for _ = 1 to n / 2 do
      Mutex.lock proc m;
      while !turn <> me do
        ignore (Cond.wait proc c m : Cond.wait_result)
      done;
      turn := 1 - me;
      Cond.signal proc c;
      Mutex.unlock proc m
    done
  in
  time (fun () ->
      let a = Pthread.create_unit proc (fun () -> player 0) in
      let b = Pthread.create_unit proc (fun () -> player 1) in
      ignore (Pthread.join proc a);
      ignore (Pthread.join proc b))

(* One op = one post/wait handoff. *)
let semaphore_pingpong proc n =
  let ping = Psem.Semaphore.create proc 0 and pong = Psem.Semaphore.create proc 0 in
  time (fun () ->
      let t =
        Pthread.create_unit proc (fun () ->
            for _ = 1 to n / 2 do
              Psem.Semaphore.wait proc ping;
              Psem.Semaphore.post proc pong
            done)
      in
      for _ = 1 to n / 2 do
        Psem.Semaphore.post proc ping;
        Psem.Semaphore.wait proc pong
      done;
      ignore (Pthread.join proc t))

let create_join proc n =
  time (fun () ->
      for _ = 1 to n do
        ignore (Pthread.join proc (Pthread.create proc (fun () -> 0)))
      done)

(* One op = one yield that switches to the other thread. *)
let yield_switch proc n =
  let spin () =
    for _ = 1 to n / 2 do
      Pthread.yield proc
    done
  in
  time (fun () ->
      let t = Pthread.create_unit proc spin in
      spin ();
      ignore (Pthread.join proc t))

(* Arm a timer and take its expiry: on the free cost model the virtual
   clock jumps, so this is the timing wheel's host cost. *)
let delay_arm_fire proc n =
  time (fun () ->
      for _ = 1 to n do
        Pthread.delay proc ~ns:1_000
      done)

let signal_internal proc n =
  Signal_api.set_action proc Vm.Sigset.sigusr1
    (Types.Sig_handler
       { h_mask = Vm.Sigset.empty; h_fn = (fun ~signo:_ ~code:_ -> ()) });
  let self = Pthread.self proc in
  time (fun () ->
      for _ = 1 to n do
        Signal_api.kill proc self Vm.Sigset.sigusr1
      done)

let qlock_uncontended n =
  let q = Qlock.create () in
  time (fun () ->
      for _ = 1 to n do
        Qlock.release q (Qlock.acquire q)
      done)

(* Two domains hammer one lock; [n] counts acquisitions over both. *)
let qlock_contended n =
  let q = Qlock.create () in
  let hammer () =
    for _ = 1 to n / 2 do
      Qlock.release q (Qlock.acquire q)
    done
  in
  time (fun () ->
      let d = Domain.spawn hammer in
      hammer ();
      Domain.join d)

(* Spawn a trivial task on the other shard and await it, [n] times. *)
let spawn_await ~domains n =
  let ns = ref 0 in
  ignore
    (Shard.run_parallel ~domains
       ~backend_for:(fun _ -> Serving.shard_backend ())
       (fun proc ->
         ns :=
           time (fun () ->
               for _ = 1 to n do
                 ignore (Shard.await proc (Shard.spawn proc ~home:1 (fun _ -> 0)))
               done);
         0));
  !ns

let rows ~domains =
  [
    ("mutex.uncontended.ns", "ns", row ~n:20_000 (in_proc mutex_uncontended));
    ("mutex.handoff.ns", "ns", row ~n:4_000 (in_proc mutex_handoff));
    ("cond.pingpong.ns", "ns", row ~n:4_000 (in_proc cond_pingpong));
    ("semaphore.pingpong.ns", "ns", row ~n:4_000 (in_proc semaphore_pingpong));
    ("pthread.create_join.ns", "ns", row ~n:2_000 (in_proc create_join));
    ("pthread.yield.ns", "ns", row ~n:10_000 (in_proc yield_switch));
    ("pthread.delay.arm_fire.ns", "ns", row ~n:5_000 (in_proc delay_arm_fire));
    ("signal.internal.ns", "ns", row ~n:5_000 (in_proc signal_internal));
    ("qlock.uncontended.ns", "ns", row ~n:200_000 qlock_uncontended);
    ("qlock.contended.ns", "ns", row ~n:100_000 qlock_contended);
    ("shard.spawn_await.us", "us", row ~n:200 ~per:1000.0 (spawn_await ~domains));
  ]
