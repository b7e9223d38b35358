open Vm
open Types

(* Per-domain scheduler shards.

   Parallel mode keeps the paper's kernel intact instead of threading
   locks through it: every shard is a complete single-threaded engine —
   its own ready bitmap, waiter queues, timer heap, tid table and
   kernel flag — pumped by one OCaml 5 domain.  Nothing inside an engine
   is ever touched by another domain.  The only cross-domain state is

   - one mutex-guarded message inbox per shard (spawns homed there,
     wakeups of threads parked there, fanned-out signal posts),
   - the mutex carried by every cross-shard [handle],
   - one pool mutex with a condition per shard, where idle domains park,
     and
   - a few atomic counters (in-flight tasks, steal statistics).

   Every lock here is a host [Stdlib.Mutex], held for a queue push or
   transfer, a field flip or a steal's pass over one inbox, and never
   across a scheduler call.

   A shard's engine has no main thread.  Its backend is wrapped, and the
   wrapped [pump] — which runs at the head of every signal poll, where
   the paper's dispatcher applies the signals it logged inside the
   kernel — applies the inbox in place: a [Spawn] becomes an ordinary
   green thread, a [Wake] unblocks an awaiter, a [Post] generates a
   process-level signal.  These run under the kernel flag and never
   dispatch; a thread made ready that outranks the running one sets the
   dispatcher flag, as an I/O wakeup does.  The pool holds the engine's
   one unit of [live_count] until the pool drains, so the engine keeps
   idling while it has no thread of its own.

   An idle shard polls for at most 200 us, through the last 200 us before
   a deadline, and otherwise blocks, just as the paper's library process
   blocks in the UNIX kernel until the SIGIO doorbell rings.  Its wait
   seam first tries to steal; then it lets the backend wait for the real
   deadline (the virtual clock jumps there; the unix loop blocks in epoll
   until 200 us before it, and inside that window polls once and
   returns, so the engine's idle loop comes back through this seam, and
   tries a steal, on every pass), and only when the backend has nothing
   that could ever wake it does the domain park on its condition.  Every inbox push rings the target shard: it signals the
   condition and calls the backend's [wake] doorbell, which ends a
   blocked epoll wait.

   Work migrates only by stealing, and only work that has not started:
   an idle shard with no ready threads takes up to half of the [Spawn]
   messages queued at a busy shard, and a spawn queued at a busy shard
   rings one idle shard to come and take it.  A spawned closure is inert
   until a pump or a steal creates its thread, so migration never moves
   a TCB, a wait-queue entry or a timer between engines.

   What this buys: the deterministic single-domain engine is untouched
   (parallel mode is a layer above it, selected by [run_parallel]), and
   per-shard kernel flags fall out by construction.  A pool whose shards
   are all parked with every inbox empty can never make progress again,
   so it reports the deadlock as a single engine would.  What it costs:
   the shards' clocks tick independently (virtual clocks drift apart). *)

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type handle = {
  h_lock : Stdlib.Mutex.t;
  mutable h_value : exit_status option;  (* guarded by h_lock *)
  mutable h_waiters : (int * int) list;
      (* (home shard, tid) of parked awaiters, newest first; guarded by
         h_lock *)
}

let make_handle () =
  { h_lock = Stdlib.Mutex.create (); h_value = None; h_waiters = [] }

let poll h = Stdlib.Mutex.protect h.h_lock (fun () -> h.h_value)

(* ------------------------------------------------------------------ *)
(* Shards and the pool                                                 *)
(* ------------------------------------------------------------------ *)

type task = {
  t_attr : Attr.t option;
  t_run : engine -> int;
  t_handle : handle;
}

type message =
  | Spawn of task
  | Wake of int  (* tid of a thread parked awaiting on this shard *)
  | Post of Sigset.signo  (* fanned-out process-level signal *)

type shard = {
  s_index : int;
  s_lock : Stdlib.Mutex.t;
  s_inbox : message Queue.t;  (* guarded by s_lock *)
  s_msgs : int Atomic.t;  (* queued messages: lock-free emptiness probe *)
  s_spawns : int Atomic.t;  (* queued [Spawn]s: lock-free steal probe *)
  s_idle : bool Atomic.t;  (* in the idle wait seam: a push must ring *)
  mutable s_parked : bool;  (* blocked on [s_bell]; guarded by [p_park] *)
  s_bell : Condition.t;
  mutable s_wake : unit -> unit;
      (* the backend's doorbell; set before the shard's first idle wait,
         so a pusher that saw [s_idle] set also sees it *)
  mutable s_engine : engine option;
      (* written by the shard's own domain before its scheduler starts;
         only ever read from that domain (and, after the joins, by the
         aggregation code) *)
  mutable s_holding : bool;
      (* the pool still holds the engine's unit of [live_count]; own
         domain only *)
  s_steals : int Atomic.t;  (* tasks this shard stole from others *)
  s_remote_wakes : int Atomic.t;  (* Wake messages this shard sent *)
  s_tasks : int Atomic.t;  (* tasks whose thread was created here *)
}

type pool = {
  p_shards : shard array;
  p_park : Stdlib.Mutex.t;  (* guards every [s_parked] and the deadlock verdict *)
  p_in_flight : int Atomic.t;  (* tasks spawned and not yet completed *)
  p_finished : bool Atomic.t;
  p_next_home : int Atomic.t;  (* round-robin home assignment *)
  p_error : exn option Atomic.t;  (* first shard failure, re-raised *)
}

type Types.ext += Shard_of of shard * pool

let context eng =
  match eng.shard_state with Shard_of (s, p) -> Some (s, p) | _ -> None

let shard_index eng =
  match context eng with Some (s, _) -> s.s_index | None -> 0

let domain_count eng =
  match context eng with
  | Some (_, p) -> Array.length p.p_shards
  | None -> 1

let steal_count eng =
  match context eng with
  | Some (_, p) ->
      Array.fold_left (fun n s -> n + Atomic.get s.s_steals) 0 p.p_shards
  | None -> 0

let make_pool n =
  {
    p_shards =
      Array.init n (fun i ->
          {
            s_index = i;
            s_lock = Stdlib.Mutex.create ();
            s_inbox = Queue.create ();
            s_msgs = Atomic.make 0;
            s_spawns = Atomic.make 0;
            s_idle = Atomic.make false;
            s_parked = false;
            s_bell = Condition.create ();
            s_wake = ignore;
            s_engine = None;
            s_holding = true;
            s_steals = Atomic.make 0;
            s_remote_wakes = Atomic.make 0;
            s_tasks = Atomic.make 0;
          });
    p_park = Stdlib.Mutex.create ();
    p_in_flight = Atomic.make 0;
    p_finished = Atomic.make false;
    p_next_home = Atomic.make 0;
    p_error = Atomic.make None;
  }

(* Wake [shard]'s domain if it is in its idle seam: signal its condition
   (it may be parked there) and ring its backend's doorbell (it may be
   blocked in epoll).  The caller has already published what ends the
   idleness, and a shard marks itself idle before it looks, so a shard
   that is not idle yet will see it. *)
let ring pool shard =
  if Atomic.get shard.s_idle then begin
    Stdlib.Mutex.protect pool.p_park (fun () -> Condition.signal shard.s_bell);
    shard.s_wake ()
  end

let push_msg pool shard msg =
  Stdlib.Mutex.protect shard.s_lock (fun () ->
      Queue.push msg shard.s_inbox;
      Atomic.incr shard.s_msgs;
      match msg with Spawn _ -> Atomic.incr shard.s_spawns | _ -> ());
  ring pool shard;
  match msg with
  | Spawn _ when not (Atomic.get shard.s_idle) -> (
      (* queued at a busy shard, the spawn is stealable: ring one idle
         shard to come and take it *)
      match
        Array.find_opt
          (fun s -> s != shard && Atomic.get s.s_idle)
          pool.p_shards
      with
      | Some s -> ring pool s
      | None -> ())
  | _ -> ()

(* Mark the pool drained (or failed) and ring every shard, so each gives
   back its engine's unit at its next pump. *)
let finish_pool pool =
  Atomic.set pool.p_finished true;
  Array.iter (ring pool) pool.p_shards

(* Fail the whole pool: remember the first error, then drain it. *)
let fail_pool pool e =
  ignore (Atomic.compare_and_set pool.p_error None (Some e) : bool);
  finish_pool pool

let engine shard =
  match shard.s_engine with Some eng -> eng | None -> assert false

(* ------------------------------------------------------------------ *)
(* Waking awaiters                                                     *)
(* ------------------------------------------------------------------ *)

(* Inside [eng]'s kernel: make the awaiter [tid] ready.  A duplicate wake
   of an awaiter that is already running is dropped. *)
let unblock_awaiter eng tid =
  match Engine.find_thread eng tid with
  | Some ({ state = Blocked On_await; _ } as t) ->
      Engine.unblock eng t Wake_normal
  | Some _ | None -> ()

(* Wake a thread of [proc]'s own engine parked in [await].  Caller is a
   green thread outside the kernel. *)
let wake_local proc tid =
  Engine.enter_kernel proc;
  unblock_awaiter proc tid;
  Engine.leave_kernel proc;
  Engine.drain_fake_calls proc

(* ------------------------------------------------------------------ *)
(* Handles: fulfil and await                                           *)
(* ------------------------------------------------------------------ *)

let fulfill proc h status =
  let waiters =
    Stdlib.Mutex.protect h.h_lock (fun () ->
        h.h_value <- Some status;
        let ws = h.h_waiters in
        h.h_waiters <- [];
        ws)
  in
  match waiters with
  | [] -> ()
  | ws -> (
      match context proc with
      | None ->
          (* single-domain: every awaiter lives on this engine *)
          List.iter (fun (_, tid) -> wake_local proc tid) (List.rev ws)
      | Some (shard, pool) ->
          List.iter
            (fun (six, tid) ->
              if six = shard.s_index then wake_local proc tid
              else begin
                Atomic.incr shard.s_remote_wakes;
                push_msg pool pool.p_shards.(six) (Wake tid)
              end)
            (List.rev ws))

let await proc h =
  let six = shard_index proc in
  let rec get () =
    Engine.checkpoint proc;
    Engine.enter_kernel proc;
    let self = Engine.current proc in
    let ready =
      (* registration happens inside the kernel, and the pump runs only
         at a signal poll, so no [Wake] for us is applied until after
         [block] below: the park/wake handshake cannot lose a wakeup *)
      Stdlib.Mutex.protect h.h_lock (fun () ->
          match h.h_value with
          | Some _ as v -> v
          | None ->
              h.h_waiters <- (six, self.tid) :: h.h_waiters;
              None)
    in
    match ready with
    | Some v ->
        Engine.leave_kernel proc;
        Engine.drain_fake_calls proc;
        v
    | None ->
        self.state <- Blocked On_await;
        let (_ : wake) = Engine.block proc in
        Engine.drain_fake_calls proc;
        get ()
  in
  get ()

(* ------------------------------------------------------------------ *)
(* Tasks                                                               *)
(* ------------------------------------------------------------------ *)

(* Completion of the last in-flight task drains the pool. *)
let task_done pool =
  if Atomic.fetch_and_add pool.p_in_flight (-1) = 1 then finish_pool pool

(* The green-thread body of a task: run [f], fulfil [h] with its outcome,
   call [finish], then hand the non-normal outcomes back to the thread
   machinery so the TCB records them exactly as for a plain thread. *)
let task_body proc h f finish () =
  let status =
    try Exited (f proc) with Thread_exit_exn st -> st | e -> Failed e
  in
  fulfill proc h status;
  finish ();
  match status with
  | Exited c -> c
  | Canceled -> raise (Thread_exit_exn Canceled)
  | Failed e -> raise e

(* Inside [eng]'s kernel: turn a task into an ordinary green thread. *)
let start_task pool shard eng task =
  Atomic.incr shard.s_tasks;
  let body =
    task_body eng task.t_handle task.t_run (fun () -> task_done pool)
  in
  let attr = Option.value task.t_attr ~default:Attr.default in
  ignore (Pthread.create_in_kernel eng attr body : int)

let spawn ?attr ?home proc f =
  let h = make_handle () in
  (match context proc with
  | None ->
      (* single-domain mode: degenerate to a local thread so programs
         written against [spawn]/[await] also run under [Pthreads.run]
         without [~domains] (and under the checker, which requires it) *)
      ignore (Pthread.create proc ?attr (task_body proc h f ignore) : int)
  | Some (_, pool) ->
      if Atomic.get pool.p_finished then
        invalid_arg "Shard.spawn: the pool has already drained";
      let n = Array.length pool.p_shards in
      let home =
        match (home, attr) with
        | Some i, _ -> i
        | None, Some a when a.Attr.home <> None -> Option.get a.Attr.home
        | None, _ -> Atomic.fetch_and_add pool.p_next_home 1
      in
      let home = ((home mod n) + n) mod n in
      Atomic.incr pool.p_in_flight;
      push_msg pool pool.p_shards.(home)
        (Spawn { t_attr = attr; t_run = f; t_handle = h }));
  h

(* ------------------------------------------------------------------ *)
(* Stealing                                                            *)
(* ------------------------------------------------------------------ *)

(* Cheap probe used by the idle seam: is there anything worth stealing? *)
let stealable pool shard =
  Array.exists (fun s -> s != shard && Atomic.get s.s_spawns > 0) pool.p_shards

(* Take up to half (rounding up) of a victim's queued [Spawn]s, oldest
   first — the victim keeps the newest, which it is closest to running.
   Non-spawn messages are shard-targeted and never move. *)
let steal_from thief victim =
  if Atomic.get victim.s_spawns = 0 then []
  else
    Stdlib.Mutex.protect victim.s_lock (fun () ->
        let keep = Queue.create () and spawns = ref [] in
        while not (Queue.is_empty victim.s_inbox) do
          match Queue.pop victim.s_inbox with
          | Spawn t -> spawns := t :: !spawns
          | m -> Queue.push m keep
        done;
        let spawns = List.rev !spawns in
        let total = List.length spawns in
        let take = (total + 1) / 2 in
        Queue.transfer keep victim.s_inbox;
        List.iteri
          (fun i t -> if i >= take then Queue.push (Spawn t) victim.s_inbox)
          spawns;
        Atomic.set victim.s_spawns (total - take);
        (* s_msgs no longer counts the taken spawns *)
        ignore (Atomic.fetch_and_add victim.s_msgs (-take) : int);
        Atomic.incr thief.s_steals;
        List.filteri (fun i _ -> i < take) spawns)

(* Steal from the first shard with queued spawns, visiting the [k]th
   shard to the thief's right first.  Top-level rather than a local
   closure, so the idle seam's every call allocates nothing. *)
let rec try_steal pool thief k =
  let n = Array.length pool.p_shards in
  if k >= n then []
  else
    match steal_from thief pool.p_shards.((thief.s_index + k) mod n) with
    | [] -> try_steal pool thief (k + 1)
    | ts -> ts

(* ------------------------------------------------------------------ *)
(* The backend seams                                                   *)
(* ------------------------------------------------------------------ *)

(* Work for the pump: queued messages, or the engine's unit to give back
   once the pool has drained. *)
let has_work pool shard =
  Atomic.get shard.s_msgs > 0 || (shard.s_holding && Atomic.get pool.p_finished)

(* Block the domain until there is work for the pump or work to steal;
   [false] reports a cross-shard deadlock.  Decided under the pool mutex:
   a parked domain has no deadline and no event source of its own, and
   only a running domain can push, so once every shard is parked with
   every inbox empty nothing can ever arrive. *)
let park_domain pool shard =
  Stdlib.Mutex.protect pool.p_park (fun () ->
      shard.s_parked <- true;
      let rec sleep () =
        if has_work pool shard || stealable pool shard then true
        else if
          Array.for_all
            (fun s -> s.s_parked && Atomic.get s.s_msgs = 0)
            pool.p_shards
        then false
        else begin
          Condition.wait shard.s_bell pool.p_park;
          sleep ()
        end
      in
      let live = sleep () in
      shard.s_parked <- false;
      live)

(* Inside [eng]'s kernel, never dispatching: a thread made ready that
   outranks the running one sets the dispatcher flag, and the enclosing
   checkpoint or the scheduler loop switches. *)
let apply pool shard eng = function
  | Spawn task -> start_task pool shard eng task
  | Wake tid -> unblock_awaiter eng tid
  | Post signo -> Engine.post_external eng signo ()

(* The idle seam's import: start stolen spawns here. *)
let steal pool shard =
  match try_steal pool shard 1 with
  | [] -> false
  | stolen ->
      let eng = engine shard in
      Engine.in_kernel eng (fun () ->
          List.iter (start_task pool shard eng) stolen);
      true

let wrap_backend pool shard (inner : Backend.t) =
  let batch = Queue.create () in
  let pump () =
    inner.Backend.pump ();
    let eng = engine shard in
    if Atomic.get shard.s_msgs > 0 then begin
      (* the whole inbox under one lock acquisition *)
      Stdlib.Mutex.protect shard.s_lock (fun () ->
          Queue.transfer shard.s_inbox batch;
          Atomic.set shard.s_msgs 0;
          Atomic.set shard.s_spawns 0);
      Engine.in_kernel eng (fun () -> Queue.iter (apply pool shard eng) batch);
      Queue.clear batch
    end;
    if shard.s_holding && Atomic.get pool.p_finished then begin
      (* the pool has drained: the engine ends with its last thread *)
      shard.s_holding <- false;
      eng.live_count <- eng.live_count - 1
    end
  in
  let wait ~deadline_ns =
    Atomic.set shard.s_idle true;
    let progress =
      (* the pump takes what woke the shard; otherwise the shard steals;
         otherwise the backend waits for the real deadline, and with
         nothing that could wake the backend the domain parks — unless
         the pool drained meanwhile, when the threads left here can only
         deadlock *)
      has_work pool shard
      || steal pool shard
      || inner.Backend.wait ~deadline_ns
      ||
      if Atomic.get pool.p_finished then has_work pool shard
      else park_domain pool shard
    in
    Atomic.set shard.s_idle false;
    progress
  in
  { inner with Backend.pump; wait }

(* ------------------------------------------------------------------ *)
(* Running a pool                                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  status : exit_status;  (* how the root task ended *)
  stats : Engine.stats;  (* summed over shards *)
  shard_stats : Engine.stats array;
  dispatches : int array;  (* per-shard thread resumptions *)
  tasks : int array;  (* per-shard tasks started (incl. stolen) *)
  steals : int;
  remote_wakes : int;
}

let merge_trap_detail details =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, n) ->
         Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    details;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_stats (arr : Engine.stats array) =
  let z = arr.(0) in
  let acc =
    Array.fold_left
      (fun (a : Engine.stats) (b : Engine.stats) ->
        Engine.
          {
            virtual_ns = a.virtual_ns + b.virtual_ns;
            switches = a.switches + b.switches;
            kernel_traps = a.kernel_traps + b.kernel_traps;
            trap_detail = [];
            sigsetmask_calls = a.sigsetmask_calls + b.sigsetmask_calls;
            signals_posted = a.signals_posted + b.signals_posted;
            signals_delivered_unix =
              a.signals_delivered_unix + b.signals_delivered_unix;
            signals_lost = a.signals_lost + b.signals_lost;
            thread_handler_runs = a.thread_handler_runs + b.thread_handler_runs;
            threads_created = a.threads_created + b.threads_created;
            heap_allocations = a.heap_allocations + b.heap_allocations;
            faults_injected = a.faults_injected + b.faults_injected;
            timers_armed = a.timers_armed + b.timers_armed;
          })
      z
      (Array.sub arr 1 (Array.length arr - 1))
  in
  {
    acc with
    Engine.trap_detail =
      merge_trap_detail (Array.to_list (Array.map (fun s -> s.Engine.trap_detail) arr));
  }

let run_parallel ~domains ?backend_for ?profile ?policy ?seed ?use_pool ?trace
    ?main_prio ?ceiling_mode f =
  if domains < 2 then
    invalid_arg "Shard.run_parallel: need at least 2 domains (use Pthreads.run)";
  let backend_for =
    match backend_for with
    | Some bf -> bf
    | None -> fun _ -> Backend.virtual_ Cost_model.sparc_ipx
  in
  let pool = make_pool domains in
  let root = make_handle () in
  let root_attr =
    match main_prio with
    | Some p -> Attr.with_prio p Attr.default
    | None -> Attr.default
  in
  Atomic.set pool.p_in_flight 1;
  push_msg pool pool.p_shards.(0)
    (Spawn
       {
         t_attr = Some (Attr.with_name "root" root_attr);
         t_run = f;
         t_handle = root;
       });
  let shard_main i () =
    let shard = pool.p_shards.(i) in
    let inner = backend_for i in
    shard.s_wake <- inner.Backend.wake;
    let backend = wrap_backend pool shard inner in
    let eng =
      Engine.make ~backend
        (Pthread.config ~backend ?profile ?policy ?seed ?use_pool ?trace
           ?ceiling_mode ())
    in
    shard.s_engine <- Some eng;
    eng.shard_state <- Shard_of (shard, pool);
    Fun.protect
      ~finally:(fun () -> backend.Backend.shutdown ())
      (fun () -> try Pthread.start eng with e -> fail_pool pool e)
  in
  let others =
    Array.init (domains - 1) (fun k -> Domain.spawn (shard_main (k + 1)))
  in
  shard_main 0 ();
  Array.iter Domain.join others;
  (match Atomic.get pool.p_error with Some e -> raise e | None -> ());
  let engines = Array.map engine pool.p_shards in
  let status =
    match poll root with
    | Some st -> st
    | None -> assert false (* the pool drains only after the root task *)
  in
  let shard_stats = Array.map Engine.stats engines in
  {
    status;
    stats = sum_stats shard_stats;
    shard_stats;
    dispatches = Array.map Engine.dispatch_count engines;
    tasks = Array.map (fun s -> Atomic.get s.s_tasks) pool.p_shards;
    steals =
      Array.fold_left (fun n s -> n + Atomic.get s.s_steals) 0 pool.p_shards;
    remote_wakes =
      Array.fold_left
        (fun n s -> n + Atomic.get s.s_remote_wakes)
        0 pool.p_shards;
  }

(* ------------------------------------------------------------------ *)
(* Cross-shard signals                                                 *)
(* ------------------------------------------------------------------ *)

let post_all proc signo =
  match context proc with
  | None -> Engine.post_external proc signo ()
  | Some (shard, pool) ->
      Array.iter
        (fun s ->
          if s == shard then Engine.post_external proc signo ()
          else push_msg pool s (Post signo))
        pool.p_shards
