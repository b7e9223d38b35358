open Types

(* Shared-memory access: cross-process data is uncached and word-at-a-time
   (the paper expects this to be slower than process-local objects). *)
let shared_access_insns = 60

(* Amortized-O(1) FIFO (batched queue): push onto [back], pop from [front],
   reversing [back] only when [front] runs dry. *)
type 'a fifo = { mutable front : 'a list; mutable back : 'a list }

let fifo_create () = { front = []; back = [] }
let fifo_push q x = q.back <- x :: q.back

let fifo_pop q =
  (match q.front with
  | [] ->
      q.front <- List.rev q.back;
      q.back <- []
  | _ -> ());
  match q.front with
  | [] -> None
  | x :: rest ->
      q.front <- rest;
      Some x

let fifo_is_empty q = q.front = [] && q.back = []
let fifo_length q = List.length q.front + List.length q.back

type mutex = {
  sm_name : string;
  mutable sm_owner : (engine * tcb) option;
  sm_waiters : (engine * tcb) fifo;  (** FIFO across processes *)
}

let mutex_create ?(name = "shared-mutex") () =
  { sm_name = name; sm_owner = None; sm_waiters = fifo_create () }

let holds proc self sm =
  match sm.sm_owner with
  | Some (p, t) -> p == proc && t == self
  | None -> false

let lock proc sm =
  Engine.checkpoint proc;
  let self = Engine.current proc in
  if holds proc self sm then
    invalid_arg ("Shared.lock: " ^ sm.sm_name ^ " already held by caller");
  Engine.enter_kernel proc;
  Engine.charge proc shared_access_insns;
  let rec attempt () =
    match sm.sm_owner with
    | None ->
        sm.sm_owner <- Some (proc, self);
        Engine.trace proc self (Vm.Trace.Mutex_lock sm.sm_name)
    | Some _ ->
        fifo_push sm.sm_waiters (proc, self);
        self.state <- Blocked (On_shared sm.sm_name);
        Engine.trace proc self (Vm.Trace.Mutex_block sm.sm_name);
        let (_ : wake) = Engine.block proc in
        Engine.drain_fake_calls proc;
        Engine.enter_kernel proc;
        if holds proc self sm then
          Engine.trace proc self (Vm.Trace.Mutex_lock sm.sm_name)
        else attempt ()
  in
  attempt ();
  Engine.leave_kernel proc

let try_lock proc sm =
  Engine.checkpoint proc;
  let self = Engine.current proc in
  if holds proc self sm then
    invalid_arg ("Shared.try_lock: " ^ sm.sm_name ^ " already held by caller");
  Engine.charge proc shared_access_insns;
  match sm.sm_owner with
  | None ->
      sm.sm_owner <- Some (proc, self);
      Engine.trace proc self (Vm.Trace.Mutex_lock sm.sm_name);
      true
  | Some _ -> false

(* Release while already in the local kernel; hands off FIFO. *)
let release_in_kernel proc sm =
  let self = Engine.current proc in
  if not (holds proc self sm) then
    invalid_arg ("Shared.unlock: " ^ sm.sm_name ^ " not held by caller");
  Engine.charge proc shared_access_insns;
  Engine.trace proc self (Vm.Trace.Mutex_unlock sm.sm_name);
  match fifo_pop sm.sm_waiters with
  | None -> sm.sm_owner <- None
  | Some (p, t) ->
      sm.sm_owner <- Some (p, t);
      (* wake the waiter in its own process; its scheduler notices at the
         next machine round *)
      Engine.unblock p t Wake_normal

let unlock proc sm =
  Engine.checkpoint proc;
  Engine.enter_kernel proc;
  release_in_kernel proc sm;
  Engine.leave_kernel proc;
  Engine.drain_fake_calls proc

let owner sm =
  match sm.sm_owner with
  | Some (p, t) ->
      let pname =
        match Engine.find_thread p 0 with Some m -> m.tname | None -> "?"
      in
      Some (pname, t.tid)
  | None -> None

let waiter_count sm = fifo_length sm.sm_waiters

type cond = {
  sc_name : string;
  sc_waiters : (engine * tcb) fifo;  (** FIFO across processes *)
}

let cond_create ?(name = "shared-cond") () =
  { sc_name = name; sc_waiters = fifo_create () }

let wait proc c sm =
  Engine.checkpoint proc;
  Engine.test_cancel proc;
  let self = Engine.current proc in
  if not (holds proc self sm) then
    invalid_arg ("Shared.wait: " ^ sm.sm_name ^ " not held by caller");
  Engine.enter_kernel proc;
  Engine.charge proc shared_access_insns;
  (* atomically: release the shared mutex and suspend *)
  release_in_kernel proc sm;
  fifo_push c.sc_waiters (proc, self);
  self.state <- Blocked (On_shared c.sc_name);
  Engine.trace proc self (Vm.Trace.Cond_block c.sc_name);
  let (_ : wake) = Engine.block proc in
  (* reacquire before handlers, as for local condition variables *)
  lock proc sm;
  Engine.drain_fake_calls proc;
  Engine.test_cancel proc

let wake_one proc c =
  match fifo_pop c.sc_waiters with
  | None -> ()
  | Some (p, t) ->
      Engine.trace proc t (Vm.Trace.Cond_wake c.sc_name);
      Engine.unblock p t Wake_normal

let signal proc c =
  Engine.checkpoint proc;
  Engine.enter_kernel proc;
  Engine.charge proc shared_access_insns;
  wake_one proc c;
  Engine.leave_kernel proc;
  Engine.drain_fake_calls proc

let broadcast proc c =
  Engine.checkpoint proc;
  Engine.enter_kernel proc;
  Engine.charge proc shared_access_insns;
  while not (fifo_is_empty c.sc_waiters) do
    wake_one proc c
  done;
  Engine.leave_kernel proc;
  Engine.drain_fake_calls proc

(* Cross-process counting semaphores, layered on the shared mutex and
   condition variable exactly as Psem layers them on the local ones. *)
type semaphore = {
  mutable s_count : int;
  s_lock : mutex;
  s_nonzero : cond;
}

let semaphore_create ?(name = "shared-sem") init =
  if init < 0 then invalid_arg "Shared.semaphore_create: negative value";
  {
    s_count = init;
    s_lock = mutex_create ~name:(name ^ ".m") ();
    s_nonzero = cond_create ~name:(name ^ ".c") ();
  }

let sem_wait proc s =
  lock proc s.s_lock;
  while s.s_count = 0 do
    wait proc s.s_nonzero s.s_lock
  done;
  s.s_count <- s.s_count - 1;
  unlock proc s.s_lock

let sem_try_wait proc s =
  lock proc s.s_lock;
  let ok = s.s_count > 0 in
  if ok then s.s_count <- s.s_count - 1;
  unlock proc s.s_lock;
  ok

let sem_post proc s =
  lock proc s.s_lock;
  s.s_count <- s.s_count + 1;
  signal proc s.s_nonzero;
  unlock proc s.s_lock

let sem_value s = s.s_count
