type origin =
  | External
  | Directed of int
  | Sync of int
  | Timer of int
  | Slice
  | Io of int

type handler = signo:int -> code:int -> origin:origin -> unit

type disposition = Default | Ignore | Catch of { mask : Sigset.t; fn : handler }

exception Process_killed of Sigset.signo

type io_req = { complete_at : int; requester : int }

type syscall =
  | Getpid
  | Sbrk
  | Sigaction
  | Sigsetmask
  | Kill
  | Sigpause
  | Setitimer
  | Read
  | Aioread
  | Write

let syscall_index = function
  | Getpid -> 0
  | Sbrk -> 1
  | Sigaction -> 2
  | Sigsetmask -> 3
  | Kill -> 4
  | Sigpause -> 5
  | Setitimer -> 6
  | Read -> 7
  | Aioread -> 8
  | Write -> 9

let syscall_name = function
  | Getpid -> "getpid"
  | Sbrk -> "sbrk"
  | Sigaction -> "sigaction"
  | Sigsetmask -> "sigsetmask"
  | Kill -> "kill"
  | Sigpause -> "sigpause"
  | Setitimer -> "setitimer"
  | Read -> "read"
  | Aioread -> "aioread"
  | Write -> "write"

let all_syscalls =
  [ Getpid; Sbrk; Sigaction; Sigsetmask; Kill; Sigpause; Setitimer; Read; Aioread; Write ]

(* What an armed timer posts when it expires, and its period (0 for a
   one-shot). *)
type timer_info = { signo : int; interval : int; origin : origin }

type timer = timer_info Timer_heap.elt

type t = {
  prof : Cost_model.profile;
  clk : Clock.t;
  pid : int;
  dispositions : disposition array;  (* indexed by signo *)
  mutable mask : Sigset.t;
  (* BSD pending signals: one slot per signo, as a bitmask plus the slot
     contents in two arrays, so posting boxes nothing. *)
  mutable pending_bits : Sigset.t;
  pending_code : int array;
  pending_origin : origin array;
  (* All interval timers live in one deadline heap: O(log n)
     arm/disarm/expiry and an O(1) exact earliest expiry, so a million
     timed waits do not turn every checkpoint into a linear scan. *)
  timers : timer_info Timer_heap.t;
  mutable io_queue : io_req list;
      (* in flight, in (complete_at, submission) order: the due ones are
         a prefix, and the head is the next completion *)
  mutable io_done : int list;
      (* requesters of unconsumed completions, one per completion, in
         the same order *)
  mutable io_ready : int -> unit;  (* the library's wake of a requester *)
  traps_by_sys : int array;  (* indexed by [syscall_index] *)
  mutable traps_total : int;
  mutable n_sigsetmask : int;
  mutable n_posted : int;
  mutable n_lost : int;
  mutable n_delivered : int;
  mutable n_window_traps : int;
  mutable blocked_io_ns : int;
  mutable trap_fault_hook : (string -> int option) option;
  mutable n_trap_faults : int;
  mutable signal_wakes : Sigset.signo -> bool;
}

exception Trap_fault of string * int
(* [Trap_fault (trap_name, errno)]: an injected syscall failure. *)

let post t signo code origin =
  t.n_posted <- t.n_posted + 1;
  if Sigset.mem t.pending_bits signo then t.n_lost <- t.n_lost + 1
    (* BSD: not queued, dropped *)
  else begin
    t.pending_bits <- Sigset.add t.pending_bits signo;
    t.pending_code.(signo) <- code;
    t.pending_origin.(signo) <- origin
  end

let create ?clock prof =
  let clk = match clock with Some c -> c | None -> Clock.create () in
  let dispositions = Array.make (Sigset.max_signo + 1) Default in
  let pending_code = Array.make (Sigset.max_signo + 1) 0 in
  let pending_origin = Array.make (Sigset.max_signo + 1) External in
  let traps_by_sys = Array.make (List.length all_syscalls) 0 in
  {
    prof;
    clk;
    pid = 1001;
    dispositions;
    mask = Sigset.empty;
    pending_bits = Sigset.empty;
    pending_code;
    pending_origin;
    timers = Timer_heap.create ();
    io_queue = [];
    io_done = [];
    io_ready = ignore;
    traps_by_sys;
    traps_total = 0;
    n_sigsetmask = 0;
    n_posted = 0;
    n_lost = 0;
    n_delivered = 0;
    n_window_traps = 0;
    blocked_io_ns = 0;
    trap_fault_hook = None;
    n_trap_faults = 0;
    signal_wakes = (fun _ -> true);
  }

let profile t = t.prof
let clock t = t.clk
let now t = Clock.now t.clk
let advance t ns = Clock.advance t.clk ns
let insns t n = advance t (Cost_model.insns t.prof n)

(* Kernel entry: count, charge the round trip, let the fault injector
   fail the call.  Callers run the call's body inline after it returns —
   no closure, no name hashing. *)
let enter t sys ~extra_ns =
  t.traps_total <- t.traps_total + 1;
  let i = syscall_index sys in
  t.traps_by_sys.(i) <- t.traps_by_sys.(i) + 1;
  advance t (t.prof.Cost_model.kernel_trap_ns + extra_ns);
  (* The fault injector may decide this trap fails (EINTR and friends): the
     trap is charged and counted, but the operation itself never runs. *)
  match t.trap_fault_hook with
  | Some hook -> (
      let name = syscall_name sys in
      match hook name with
      | Some errno ->
          t.n_trap_faults <- t.n_trap_faults + 1;
          raise (Trap_fault (name, errno))
      | None -> ())
  | None -> ()

let trap t sys = enter t sys ~extra_ns:0

let set_trap_fault_hook t h = t.trap_fault_hook <- h
let trap_faults t = t.n_trap_faults

let getpid t =
  trap t Getpid;
  t.pid

let sbrk t _bytes = enter t Sbrk ~extra_ns:t.prof.Cost_model.sbrk_ns

let flush_windows t =
  t.n_window_traps <- t.n_window_traps + 1;
  advance t t.prof.Cost_model.window_flush_ns

let window_underflow t =
  t.n_window_traps <- t.n_window_traps + 1;
  advance t t.prof.Cost_model.window_underflow_ns

(* Signals ----------------------------------------------------------- *)

let sigaction t signo disp =
  assert (Sigset.is_valid signo);
  trap t Sigaction;
  t.dispositions.(signo) <- disp

let sigsetmask t mask =
  t.n_sigsetmask <- t.n_sigsetmask + 1;
  trap t Sigsetmask;
  let old = t.mask in
  t.mask <- mask;
  old

let proc_mask t = t.mask
let set_signal_wakes t f = t.signal_wakes <- f
let signal_wakes t signo = t.signal_wakes signo

let post_signal t signo ?(code = 0) ~origin () =
  assert (Sigset.is_valid signo);
  post t signo code origin

let kill t signo ?(code = 0) ~origin () =
  trap t Kill;
  post_signal t signo ~code ~origin ()

let pending t = t.pending_bits

(* The lowest pending, unmasked signal whose disposition is not Ignore, or
   0 (Ignored pending signals are simply discarded on the way, like the
   kernel's issig()).  The scan is skipped entirely when nothing is
   pending — [has_deliverable] runs at every checkpoint, so the
   nothing-pending case must be O(1). *)
let first_deliverable t =
  if t.pending_bits = Sigset.empty then 0
  else begin
    let found = ref 0 in
    let signo = ref 1 in
    while !found = 0 && !signo <= Sigset.max_signo do
      let s = !signo in
      if Sigset.mem t.pending_bits s && not (Sigset.mem t.mask s) then begin
        match t.dispositions.(s) with
        | Ignore -> t.pending_bits <- Sigset.remove t.pending_bits s
        | Default | Catch _ -> found := s
      end;
      incr signo
    done;
    !found
  end

let has_deliverable t = first_deliverable t <> 0

let deliver_pending t =
  let signo = first_deliverable t in
  if signo = 0 then false
  else begin
    t.pending_bits <- Sigset.remove t.pending_bits signo;
    match t.dispositions.(signo) with
    | Ignore -> assert false (* filtered by first_deliverable *)
    | Default -> raise (Process_killed signo)
    | Catch { mask; fn } ->
        t.n_delivered <- t.n_delivered + 1;
        advance t t.prof.Cost_model.signal_deliver_ns;
        let saved = t.mask in
        t.mask <- Sigset.add (Sigset.union t.mask mask) signo;
        fn ~signo ~code:t.pending_code.(signo) ~origin:t.pending_origin.(signo);
        (* sigreturn: restore the pre-delivery mask. *)
        advance t t.prof.Cost_model.sigreturn_ns;
        t.mask <- saved;
        true
  end

(* Timers and asynchronous I/O --------------------------------------- *)

let arm_timer t ~after_ns ~interval_ns ~signo ~origin =
  trap t Setitimer;
  Timer_heap.push t.timers
    ~key:(now t + max 0 after_ns)
    { signo; interval = interval_ns; origin }

let disarm_timer t tm =
  trap t Setitimer;
  ignore (Timer_heap.remove t.timers tm : bool)

(* Pure observation — no trap, no time charge: used by tests to assert a
   completed wait left nothing armed. *)
let armed_timer_count t = Timer_heap.length t.timers
let armed_timer_peak t = Timer_heap.peak_length t.timers

let blocking_read t ~latency_ns =
  trap t Read;
  (* the process sleeps in the kernel: nothing else can run *)
  advance t latency_ns;
  t.blocked_io_ns <- t.blocked_io_ns + latency_ns

let blocking_io_ns t = t.blocked_io_ns

let submit_io t ~latency_ns ~requester =
  trap t Aioread;
  let io = { complete_at = now t + latency_ns; requester } in
  let rec insert = function
    | x :: rest when x.complete_at <= io.complete_at -> x :: insert rest
    | l -> io :: l
  in
  t.io_queue <- insert t.io_queue

(* Record each due completion, in order: SIGIO is only a doorbell (BSD
   signals do not queue, so concurrent completions can share one). *)
let rec complete_due t time =
  match t.io_queue with
  | io :: rest when io.complete_at <= time ->
      t.io_queue <- rest;
      t.io_done <- t.io_done @ [ io.requester ];
      post_signal t Sigset.sigio ~origin:(Io io.requester) ();
      complete_due t time
  | _ -> ()

let check_events t =
  let time = now t in
  (* Timers fire in (expiry, arm) order, the heap's own.  An interval
     timer re-arms at the first multiple of its period strictly after
     [time]: missed periods collapse into one firing, the BSD catch-up
     of a slow consumer.  That is always later than [time], so no timer
     fires twice in one check. *)
  while Timer_heap.min_key t.timers <= time do
    let tm = Timer_heap.pop t.timers in
    let { signo; interval; origin } = Timer_heap.value tm in
    if interval > 0 then begin
      let e = Timer_heap.key tm in
      Timer_heap.reinsert t.timers tm
        ~key:(e + ((((time - e) / interval) + 1) * interval))
    end;
    post t signo 0 origin
  done;
  complete_due t time

let set_io_ready t f = t.io_ready <- f
let io_ready t ~requester = t.io_ready requester

let take_io_completion t ~requester =
  let rec drop = function
    | [] -> []
    | r :: rest -> if r = requester then rest else r :: drop rest
  in
  List.mem requester t.io_done && (t.io_done <- drop t.io_done; true)

let completion_requesters t =
  List.fold_left (fun acc r -> if List.mem r acc then acc else acc @ [ r ]) [] t.io_done

let next_event_time t =
  match t.io_queue with
  | io :: _ -> min (Timer_heap.min_key t.timers) io.complete_at
  | [] -> Timer_heap.min_key t.timers

(* Accounting --------------------------------------------------------- *)

let trap_count t = t.traps_total

let trap_counts t =
  List.filter_map
    (fun sys ->
      let n = t.traps_by_sys.(syscall_index sys) in
      if n > 0 then Some (syscall_name sys, n) else None)
    all_syscalls
  |> List.sort compare

let sigsetmask_count t = t.n_sigsetmask
let signals_posted t = t.n_posted
let signals_lost t = t.n_lost
let signals_delivered t = t.n_delivered
let window_trap_count t = t.n_window_traps

let reset_counters t =
  Array.fill t.traps_by_sys 0 (Array.length t.traps_by_sys) 0;
  t.traps_total <- 0;
  t.n_sigsetmask <- 0;
  t.n_posted <- 0;
  t.n_lost <- 0;
  t.n_delivered <- 0;
  t.n_window_traps <- 0;
  t.n_trap_faults <- 0
