module Pthread = Pthreads.Pthread
module Mutex = Pthreads.Mutex
module Cond = Pthreads.Cond
module Engine = Pthreads.Engine
module Types = Pthreads.Types

type t = {
  key : int;  (** sanitizer identity ([Engine.key_sem]) *)
  sname : string;
  mutable count : int;
  lock : Types.mutex;
  nonzero : Types.cond;
}

let create proc ?name init =
  if init < 0 then invalid_arg "Semaphore.create: negative initial value";
  let id = Engine.fresh_obj_id proc in
  let sname =
    match name with Some base -> base | None -> "sem-" ^ string_of_int id
  in
  match name with
  | Some base ->
      {
        key = Engine.key_sem id;
        sname;
        count = init;
        lock = Mutex.create proc ~name:(base ^ ".m") ();
        nonzero = Cond.create proc ~name:(base ^ ".c") ();
      }
  | None ->
      (* unnamed: let the primitives mint unique names *)
      {
        key = Engine.key_sem id;
        sname;
        count = init;
        lock = Mutex.create proc ();
        nonzero = Cond.create proc ();
      }

(* Announced outside [s.lock] for the same reason as [Rwlock]: the
   internal mutex must not appear to nest with the semaphore itself.
   The sanitizer applies relaxed ownership to [key_sem] keys (a P in one
   thread and a V in another is legal), but a P performed while holding
   other locks still contributes held -> sem edges, catching
   binary-semaphore-as-mutex inversions. *)

let wait proc s =
  Mutex.lock proc s.lock;
  (* [Cond.wait] reacquires [s.lock] before acting on a cancellation, so
     a cancelled waiter would otherwise exit still holding it — the
     blocked-waiter leak class fixed for [Rwlock.write_lock].  No counter
     to repair here: [count] is only decremented after the wait
     succeeds.  (Explicit try/with, not [Fun.protect]: the caller must
     see the original exception.) *)
  (try
     while s.count = 0 do
       ignore (Cond.wait proc s.nonzero s.lock : Cond.wait_result)
     done
   with e ->
     Mutex.unlock proc s.lock;
     raise e);
  s.count <- s.count - 1;
  Mutex.unlock proc s.lock;
  Engine.san_acquire proc s.key ~name:s.sname ~excl:true

let try_wait proc s =
  Mutex.lock proc s.lock;
  let ok = s.count > 0 in
  if ok then s.count <- s.count - 1;
  Mutex.unlock proc s.lock;
  if ok then Engine.san_acquire proc s.key ~name:s.sname ~excl:true;
  ok

let post proc s =
  Mutex.lock proc s.lock;
  s.count <- s.count + 1;
  Cond.signal proc s.nonzero;
  Mutex.unlock proc s.lock;
  Engine.san_release proc s.key

let value proc s =
  Mutex.lock proc s.lock;
  let v = s.count in
  Mutex.unlock proc s.lock;
  v
