type watch = { handle : int; dir : [ `Read | `Write ]; requester : int }

type t = {
  kernel : Unix_kernel.t;
  fds : (int, Unix.file_descr) Hashtbl.t;
  mutable next_handle : int;
  mutable watches : watch list;
  (* The poll set, rebuilt only when [watches] changes: the throttled
     pump polls every ~100 us and usually finds nothing, so the
     steady-state poll must not re-walk hundreds of watches.  Entry [i] of
     [poll_fds]/[poll_dirs]/[poll_revents] is [poll_watches.(i)]; the
     doorbell takes the one extra slot at the end. *)
  mutable poll_watches : watch array;
  mutable poll_fds : Unix.file_descr array;
  mutable poll_dirs : int array;  (* 0 = readable, 1 = writable *)
  mutable poll_revents : int array;
  mutable cache_ok : bool;
  forwarded : int list Atomic.t;
      (* simulated signos pushed by the host handlers, newest first; a
         handler runs on whichever domain takes the signal *)
  bell_rd : Unix.file_descr;
  bell_wr : Unix.file_descr;
  bell_users : int Atomic.t;  (* rings in flight; -1 once the pipe is closed *)
  mutable saved_handlers : (int * Sys.signal_behavior) list;
  mutable last_poll_ns : int;
  mutable hot : bool;  (* the previous poll fired a watch: poll eagerly *)
  mutable closed : bool;
}

(* Polling real fds on every checkpoint would put a poll(2) in every
   library fast path; batching readiness at ~100 us matches the paper's
   SIGIO-doorbell granularity and keeps pump cost off the hot path.  The
   idle path ([wait]) always polls immediately, so wakeups from a fully
   blocked process are not delayed by this.

   The 100 us throttle only applies while the fds are quiet.  While
   completions are actually arriving (the previous poll fired a watch) the
   pump re-polls at [hot_poll_interval_ns]: under load the scheduler is
   rarely idle, so a fixed 100 us batch window made every fd wakeup queue
   behind a convoy of others discovered in the same poll — dispatch
   latency was a function of the batch size, not of the scheduler. *)
let poll_interval_ns = 100_000
let hot_poll_interval_ns = 20_000

let sync_clock t =
  Clock.advance_to (Unix_kernel.clock t.kernel) (Real_clock.now_ns ())

let fd_of t handle =
  match Hashtbl.find_opt t.fds handle with
  | Some fd -> fd
  | None -> invalid_arg "Real_kernel: closed or unknown handle"

let register_fd t fd =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace t.fds h fd;
  h

let rec push_forwarded t signo =
  let l = Atomic.get t.forwarded in
  if not (Atomic.compare_and_set t.forwarded l (signo :: l)) then
    push_forwarded t signo

let drain_forwarded t =
  match Atomic.get t.forwarded with
  | [] -> ()
  | _ ->
      List.iter
        (fun signo -> Unix_kernel.post_signal t.kernel signo ~origin:External ())
        (List.rev (Atomic.exchange t.forwarded []))

(* The doorbell: a self-pipe whose read end is in every idle poll, so
   an event that does not arrive on a watched fd — a ring from another
   domain, a forwarded host signal — still ends the wait.  [bell_users]
   lets [shutdown] wait out rings in flight before it closes the pipe: a
   byte written to a recycled descriptor number would land in an
   unrelated file. *)
let bell_byte = Bytes.make 1 '\001'

let ring t =
  let rec enter () =
    let n = Atomic.get t.bell_users in
    n >= 0 && (Atomic.compare_and_set t.bell_users n (n + 1) || enter ())
  in
  if enter () then begin
    (* EAGAIN: the pipe is full, so the bell is already rung *)
    (try ignore (Unix.single_write t.bell_wr bell_byte 0 1 : int)
     with Unix.Unix_error _ -> ());
    Atomic.decr t.bell_users
  end

let drain_bell t =
  let buf = Bytes.create 64 in
  try
    while Unix.read t.bell_rd buf 0 (Bytes.length buf) > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

(* [ppoll fds dirs revents n timeout_ns] (real_stubs.c): wait at most
   [timeout_ns] (-1 = no limit) for one of the first [n] fds, and return
   the ready count, filling [revents] when it is not 0 (0 also when a
   signal interrupted the wait).  A blocking call releases the runtime
   lock and zeroes the host thread's timer slack, so it ends at the
   deadline rather than ~50 us after. *)
external ppoll :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "pthreads_ppoll"

let rebuild_poll_set t =
  let live = List.filter (fun w -> Hashtbl.mem t.fds w.handle) t.watches in
  let ws = Array.of_list live in
  let n = Array.length ws in
  t.watches <- live;
  t.poll_watches <- ws;
  t.poll_fds <-
    Array.init (n + 1) (fun i ->
        if i < n then fd_of t ws.(i).handle else t.bell_rd);
  t.poll_dirs <-
    Array.init (n + 1) (fun i -> if i < n && ws.(i).dir = `Write then 1 else 0);
  t.poll_revents <- Array.make (n + 1) 0;
  t.cache_ok <- true

(* Poll the current watches (and, when idle, the doorbell) and record the
   requester of each ready watch, in poll order, for the engine to wake.
   Any readiness fires, hang-up and error included: the reader then sees
   end of stream or the error.  Watches are one-shot: a fired watch is
   removed before its requester is recorded. *)
let poll_watches t ~timeout_ns ~bell =
  if not t.cache_ok then rebuild_poll_set t;
  let ws = t.poll_watches and revents = t.poll_revents in
  let n = Array.length ws in
  let ready =
    ppoll t.poll_fds t.poll_dirs revents (if bell then n + 1 else n) timeout_ns
  in
  let rang = bell && ready > 0 && revents.(n) <> 0 in
  if rang then drain_bell t;
  t.hot <- ready > Bool.to_int rang;
  if t.hot then begin
    let keep = ref [] in
    for i = n - 1 downto 0 do
      if revents.(i) = 0 then keep := ws.(i) :: !keep
    done;
    t.watches <- !keep;
    t.cache_ok <- false;
    for i = 0 to n - 1 do
      if revents.(i) <> 0 then
        Unix_kernel.record_io_ready t.kernel ~requester:ws.(i).requester
    done
  end

let pump t () =
  if not t.closed then begin
    sync_clock t;
    drain_forwarded t;
    let now = Unix_kernel.now t.kernel in
    let interval =
      if t.hot then hot_poll_interval_ns else poll_interval_ns
    in
    if t.watches <> [] && now - t.last_poll_ns >= interval then begin
      t.last_poll_ns <- now;
      poll_watches t ~timeout_ns:0 ~bell:false
    end
  end

let wait t ~deadline_ns =
  if t.closed then false
  else begin
    sync_clock t;
    drain_forwarded t;
    if Unix_kernel.has_deliverable t.kernel || Unix_kernel.has_io_ready t.kernel
    then true
    else
      let now = Unix_kernel.now t.kernel in
      (* the doorbell is not a source of its own: only another domain
         rings it, so a lone engine with nothing else is still deadlocked *)
      let can_wake_externally =
        t.watches <> [] || t.saved_handlers <> []
      in
      match deadline_ns with
      | None when not can_wake_externally -> false (* provable deadlock *)
      | _ ->
          let timeout_ns =
            match deadline_ns with
            | Some d -> max 0 (d - now)
            | None -> -1 (* until an fd, a forwarded signal or a wake *)
          in
          (* a zero wait with nothing to watch needs no syscall; a ring
             still in the pipe ends the next blocking wait instead *)
          if timeout_ns <> 0 || t.watches <> [] then
            poll_watches t ~timeout_ns ~bell:true;
          sync_clock t;
          drain_forwarded t;
          true
  end

let unwatch t requester =
  t.watches <- List.filter (fun w -> w.requester <> requester) t.watches;
  t.cache_ok <- false

let net_ops t =
  let close_handle h =
    match Hashtbl.find_opt t.fds h with
    | None -> ()
    | Some fd ->
        Hashtbl.remove t.fds h;
        t.watches <- List.filter (fun w -> w.handle <> h) t.watches;
        t.cache_ok <- false;
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* A connected socket: non-blocking, and without Nagle's delay, so a
     message written in pieces goes out at once. *)
  let register_conn fd =
    Unix.set_nonblock fd;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    register_fd t fd
  in
  {
    Backend.net_listen =
      (fun ~port ~backlog ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd backlog;
        Unix.set_nonblock fd;
        register_fd t fd);
    net_port =
      (fun h ->
        match Unix.getsockname (fd_of t h) with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> invalid_arg "Real_kernel.net_port");
    net_connect =
      (fun ~port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with e -> (try Unix.close fd with _ -> ()); raise e);
        register_conn fd);
    net_accept =
      (fun h ->
        match Unix.accept (fd_of t h) with
        | conn, _ -> Some (register_conn conn)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            None);
    net_read =
      (fun h buf ~pos ~len ->
        match Unix.read (fd_of t h) buf pos len with
        | n -> Some n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            None
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Some 0);
    net_write =
      (fun h buf ~pos ~len ->
        match Unix.write (fd_of t h) buf pos len with
        | n -> Some n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            None
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Some 0);
    net_watch =
      (fun h dir ~requester ->
        ignore (fd_of t h);
        unwatch t requester;
        t.watches <- { handle = h; dir; requester } :: t.watches);
    net_unwatch = (fun ~requester -> unwatch t requester);
    net_close = close_handle;
  }

let default_forwards =
  [
    (Sys.sigusr1, Sigset.sigusr1);
    (Sys.sigusr2, Sigset.sigusr2);
    (Sys.sighup, Sigset.sighup);
  ]

let shutdown t () =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun (host, prev) -> try Sys.set_signal host prev with _ -> ())
      t.saved_handlers;
    t.saved_handlers <- [];
    Hashtbl.iter (fun _ fd -> try Unix.close fd with _ -> ()) t.fds;
    Hashtbl.reset t.fds;
    t.watches <- [];
    while not (Atomic.compare_and_set t.bell_users 0 (-1)) do
      Domain.cpu_relax ()
    done;
    Unix.close t.bell_rd;
    Unix.close t.bell_wr
  end

let create ?(profile = Cost_model.free) ?(forward_signals = default_forwards)
    () =
  let kernel = Unix_kernel.create profile in
  let bell_rd, bell_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_rd;
  Unix.set_nonblock bell_wr;
  let t =
    {
      kernel;
      fds = Hashtbl.create 16;
      next_handle = 1;
      watches = [];
      poll_watches = [||];
      poll_fds = [||];
      poll_dirs = [||];
      poll_revents = [||];
      cache_ok = false;
      forwarded = Atomic.make [];
      bell_rd;
      bell_wr;
      bell_users = Atomic.make 0;
      saved_handlers = [];
      last_poll_ns = 0;
      hot = false;
      closed = false;
    }
  in
  sync_clock t;
  List.iter
    (fun (host, signo) ->
      let prev =
        Sys.signal host
          (Sys.Signal_handle
             (fun _ ->
               push_forwarded t signo;
               ring t))
      in
      t.saved_handlers <- (host, prev) :: t.saved_handlers)
    forward_signals;
  {
    Backend.kind = Backend.Unix_loop;
    kernel;
    pump = pump t;
    wait = wait t;
    wake = (fun () -> ring t);
    net = Some (net_ops t);
    shutdown = shutdown t;
  }
