type fd = Unix.file_descr

(* A registered socket: its descriptor and its two requester slots, the
   threads (tids) waiting for it to turn readable (0) and writable (1). *)
type sock = { fd : fd; slots : int list array }

type t = {
  kernel : Unix_kernel.t;
  socks : (int, sock) Hashtbl.t;
  mutable next_handle : int;
  mutable waiting : int;  (* requesters in the slots of [socks] *)
  ep : fd;  (* epoll: every socket, and the doorbell as handle 0 *)
  events : int array;  (* [epoll_wait]'s (handle, slot bits) pairs *)
  accepted : fd array;  (* [sock_accept]'s result *)
  mutable rang : bool;  (* a pump's poll took a ring the next [wait] owes *)
  mutable polled_ns : int;  (* when the last poll ended *)
  mutable poll_ns : int;  (* what the last pump's empty poll took; 0 after events *)
  forwarded : int list Atomic.t;
      (* simulated signos pushed by the host handlers, newest first; a
         handler runs on whichever domain takes the signal *)
  bell_rd : fd;
  bell_wr : fd;
  bell_users : int Atomic.t;  (* rings in flight; -1 once the pipe is closed *)
  forwards : Sigset.signo list;  (* the simulated signos of [forward_signals] *)
  mutable saved_handlers : (int * Sys.signal_behavior) list;
  mutable closed : bool;
}

(* real_stubs.c.  A socket call answers a negative int where it would
   block. *)
external epoll_create : unit -> fd = "pthreads_epoll_create"
external epoll_add : fd -> fd -> int -> unit = "pthreads_epoll_add"
external epoll_wait : fd -> int array -> int -> int = "pthreads_epoll_wait"
external sock_connect : fd -> int -> int = "pthreads_sock_connect"
external sock_accept : fd -> fd array -> int = "pthreads_sock_accept"
external sock_io : fd -> bytes -> int -> int -> bool -> int = "pthreads_sock_io"

let sync_clock t =
  Clock.advance_to (Unix_kernel.clock t.kernel) (Real_clock.now_ns ())

let sock t handle =
  match Hashtbl.find t.socks handle with
  | s -> s
  | exception Not_found -> invalid_arg "Real_kernel: closed or unknown handle"

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Once, at listen, accept or connect, for the socket's life. *)
let register t fd =
  let h = t.next_handle in
  (try epoll_add t.ep fd h
   with e ->
     close fd;
     raise e);
  t.next_handle <- h + 1;
  Hashtbl.replace t.socks h { fd; slots = [| []; [] |] };
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

(* The doorbell: one more registration, so an event that does not arrive
   on a socket — a ring from another domain, a forwarded host signal —
   still ends the wait.  [bell_users] lets [shutdown] wait out rings in
   flight before it closes the pipe: a byte written to a recycled
   descriptor number would land in an unrelated file. *)
let bell_byte = Bytes.make 1 '\001'

let ring t =
  let rec enter () =
    let n = Atomic.get t.bell_users in
    n >= 0 && (Atomic.compare_and_set t.bell_users n (n + 1) || enter ())
  in
  if enter () then begin
    (* a full pipe is already rung *)
    (try ignore (Unix.single_write t.bell_wr bell_byte 0 1 : int)
     with Unix.Unix_error _ -> ());
    Atomic.decr t.bell_users
  end

let drain_bell t =
  let buf = Bytes.create 64 in
  while sock_io t.bell_rd buf 0 64 false > 0 do
    ()
  done

(* Empty a slot, waking its requesters. *)
let rec fire t s i =
  match s.slots.(i) with
  | [] -> ()
  | requester :: rest ->
      s.slots.(i) <- rest;
      t.waiting <- t.waiting - 1;
      Unix_kernel.io_ready t.kernel ~requester;
      fire t s i

(* Poll for at most [timeout_ns] (-1 = no limit) and answer the number
   of events.  Each event fires the slots it names; an error or a hang-up
   names both, so the thread sees end of stream or the error.  An edge
   nobody waits on is dropped: every op tries its call before it waits,
   so a would-block answer means that later data raises a new edge. *)
let poll t timeout_ns =
  let n = epoll_wait t.ep t.events timeout_ns in
  for i = 0 to n - 1 do
    let h = t.events.(2 * i) and bits = t.events.(2 * i + 1) in
    if h = 0 then begin
      drain_bell t;
      t.rang <- true
    end
    else
      match Hashtbl.find t.socks h with
      | s ->
          if bits land 1 <> 0 then fire t s 0;
          if bits land 2 <> 0 then fire t s 1
      | exception Not_found -> () (* closed since *)
  done;
  n

(* The pump runs at every checkpoint, so with a slot filled it polls only
   once [poll_spacing] times what its last empty poll took has passed
   since any poll: polling then takes at most 1/17 of a busy engine's time
   beside idle sockets, and a thread that turns ready waits at most that
   long (~3 us where an empty [epoll_wait] takes ~160 ns) to be woken.  A
   poll that found events is followed at once by the next, for more are
   likely under way.  An idle engine polls in [wait] instead. *)
let poll_spacing = 16

let pump t () =
  if not t.closed then begin
    sync_clock t;
    drain_forwarded t;
    let now = Unix_kernel.now t.kernel in
    if t.waiting > 0 && now - t.polled_ns >= poll_spacing * t.poll_ns then begin
      let found = poll t 0 > 0 in
      sync_clock t;
      t.polled_ns <- Unix_kernel.now t.kernel;
      t.poll_ns <- (if found then 0 else t.polled_ns - now)
    end
  end

(* A timed wait polls before it wakes.  Waking from a block costs a
   2-vCPU KVM guest 7-9 us past a 200 us timeout, ~27 us past 2 ms and
   ~90 us past 20 ms, and Linux stretches a poll's timeout by 1/1000 of
   itself (100 us on a 100 ms block), so a timed wait blocks only until
   [spin_ns] before its deadline.  Inside that window it polls once with
   a zero timeout and returns [true]: the engine's idle loop waits again
   until the deadline, an event or a ring, so that loop is the spin, and
   it keeps the engine's path back to the woken thread warm.  A block cut
   short by a host signal returns [true] too, and the next wait blocks
   again.  A wait with no deadline just blocks.  200 us is that wake
   cost, and the window KVM itself spins before it halts a guest's idle
   vCPU (its default [halt_poll_ns]).  A constant, not a learned window:
   a window grown by one late wakeup would spin an idle engine on a core
   for good.  Each poll returns to OCaml, so signal handlers and other
   domains' collections are not held off. *)
let spin_ns = 200_000

let wait t ~deadline_ns =
  if t.closed then false
  else begin
    sync_clock t;
    drain_forwarded t;
    if t.rang || Unix_kernel.has_deliverable t.kernel then begin
      t.rang <- false;
      true
    end
    else
      (* the doorbell is not a source of its own: only another domain
         rings it, so a lone engine with nothing else is still
         deadlocked; nor is a forwarded host signal whose delivery would
         make no thread runnable (asked only with no deadline and no
         filled slot) *)
      match deadline_ns with
      | None
        when t.waiting = 0
             && not (List.exists (Unix_kernel.signal_wakes t.kernel) t.forwards)
        ->
          false (* provable deadlock *)
      | _ ->
          (* until a socket, a forwarded signal, a ring or the window *)
          let timeout =
            match deadline_ns with
            | Some d -> max 0 (d - Unix_kernel.now t.kernel - spin_ns)
            | None -> -1
          in
          ignore (poll t timeout : int);
          t.rang <- false;
          sync_clock t;
          t.polled_ns <- Unix_kernel.now t.kernel;
          drain_forwarded t;
          true
  end

let slot = function `Read -> 0 | `Write -> 1

let net_ops t =
  (* a closed handle reads, writes and accepts 0, as a closed vm pipe
     reads and writes; a range outside [buf] is refused first, for
     [sock_io] does not check *)
  let transfer write h buf ~pos ~len =
    if pos < 0 || len < 0 || pos > Bytes.length buf - len then
      invalid_arg (if write then "Net.write" else "Net.read");
    match Hashtbl.find t.socks h with
    | s -> sock_io s.fd buf pos len write
    | exception Not_found -> 0
  in
  let tcp () = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  {
    Backend.net_listen =
      (fun ~port ~backlog ->
        let fd = tcp () in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd backlog;
        Unix.set_nonblock fd;
        register t fd);
    net_port =
      (fun h ->
        match Unix.getsockname (sock t h).fd with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> invalid_arg "Real_kernel.net_port");
    net_socket =
      (fun () ->
        (* without Nagle's delay, so a message written in pieces goes out
           at once; accepted sockets get the same in [sock_accept] *)
        let fd = tcp () in
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        register t fd);
    net_connect = (fun h ~port -> sock_connect (sock t h).fd port);
    net_accept =
      (fun h ->
        match Hashtbl.find t.socks h with
        | s ->
            let r = sock_accept s.fd t.accepted in
            if r < 0 then r else register t t.accepted.(0)
        | exception Not_found -> 0);
    net_read = transfer false;
    net_write = transfer true;
    net_watch =
      (fun h dir ~requester ->
        let s = sock t h and i = slot dir in
        if not (List.mem requester s.slots.(i)) then begin
          s.slots.(i) <- requester :: s.slots.(i);
          t.waiting <- t.waiting + 1
        end);
    net_unwatch =
      (fun h dir ~requester ->
        match Hashtbl.find t.socks h with
        | { slots; _ } when List.mem requester slots.(slot dir) ->
            let i = slot dir in
            slots.(i) <- List.filter (( <> ) requester) slots.(i);
            t.waiting <- t.waiting - 1
        | _ -> ()
        | exception Not_found -> ());
    net_close =
      (fun h ->
        match Hashtbl.find t.socks h with
        | s ->
            (* its blocked threads wake, and their retry answers 0 *)
            Hashtbl.remove t.socks h;
            fire t s 0;
            fire t s 1;
            close s.fd
        | exception Not_found -> ());
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
    Hashtbl.iter (fun _ s -> close s.fd) t.socks;
    Hashtbl.reset t.socks;
    t.waiting <- 0;
    while not (Atomic.compare_and_set t.bell_users 0 (-1)) do
      Domain.cpu_relax ()
    done;
    List.iter Unix.close [ t.bell_rd; t.bell_wr; t.ep ]
  end

let create ?(profile = Cost_model.free) ?(forward_signals = default_forwards)
    () =
  let kernel = Unix_kernel.create profile in
  let ep = epoll_create () and bell_rd, bell_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_rd;
  Unix.set_nonblock bell_wr;
  epoll_add ep bell_rd 0;
  let t =
    {
      kernel;
      socks = Hashtbl.create 16;
      next_handle = 1;
      waiting = 0;
      ep;
      events = Array.make 128 0;
      accepted = [| ep |];
      rang = false;
      polled_ns = 0;
      poll_ns = 0;
      forwarded = Atomic.make [];
      bell_rd;
      bell_wr;
      bell_users = Atomic.make 0;
      forwards = List.map snd forward_signals;
      saved_handlers = [];
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
